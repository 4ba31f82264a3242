"""E9 (Lemmas 1 and 2): the soundness ladder R^dl ⊇ S ⊇ S~.

Lemma 1 quantifies over all of R^dl (surrogate: a huge box), Lemma 2
over a statically computed S, the assume-guarantee variant over the
data-derived S~.  Tighter sets prove more properties; this bench sweeps
one risk threshold across the three levels and benchmarks each query.
"""

import numpy as np
import pytest

from repro.api import VerificationQuery
from repro.core.verdict import Verdict
from repro.properties.library import steer_far_left
from repro.verification.sets import Box

#: Lemma 1 practical surrogate for R^dl (features are post-ReLU, so >= 0)
LEMMA1_BOUND = 1e4


@pytest.fixture(scope="module")
def ladder_sets(system):
    dim = system.model.feature_dim(system.cut_layer)
    system.engine.add_raw_set(
        Box(np.full(dim, -LEMMA1_BOUND), np.full(dim, LEMMA1_BOUND)),
        sound=True,
        name="lemma1",
    )
    system.engine.add_static_feature_set(0.0, 1.0, name="lemma2-static")
    return ("lemma1", "lemma2-static", "data")


@pytest.mark.parametrize("set_name", ["lemma1", "lemma2-static", "data"])
@pytest.mark.benchmark(group="e9-lemmas")
def test_e9_query_per_level(benchmark, system, ladder_sets, provable_threshold, set_name):
    risk = steer_far_left(provable_threshold)
    verdict = benchmark(
        lambda: system.engine.run_query(
            VerificationQuery(risk=risk, property_name="bends_right", set_name=set_name)
        ).verdict
    )
    if set_name == "data":
        # only the assume-guarantee level proves the property...
        assert verdict.verdict is Verdict.CONDITIONALLY_SAFE
    else:
        # ...the coarser sound levels cannot
        assert verdict.verdict is Verdict.UNSAFE_IN_SET


@pytest.mark.benchmark(group="e9-lemmas")
def test_e9_ladder_inclusion(benchmark, system, ladder_sets):
    """The sets really are nested: S~ ⊆ S ⊆ R^dl-surrogate (per-bound check)."""

    def check():
        data_lo, data_hi = system.engine.feature_set("data").bounds()
        static_lo, static_hi = system.engine.feature_set("lemma2-static").bounds()
        huge_lo, huge_hi = system.engine.feature_set("lemma1").bounds()
        assert np.all(static_lo <= data_lo + 1e-9)
        assert np.all(static_hi >= data_hi - 1e-9)
        assert np.all(huge_lo <= static_lo + 1e-9)
        assert np.all(huge_hi >= static_hi - 1e-9)
        return True

    assert benchmark(check)
