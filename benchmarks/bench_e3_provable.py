"""E3 (§V claim 1): the conditionally provable property.

"Using assume-guarantee based techniques that take an over-approximation
from neuron values produced by the training data, it is possible to
conditionally prove some properties such as 'impossibility to suggest
steering to the far left, when the road image is bending to the right'."

Benchmarks the UNSAT proof with both solvers and checks the verdict.
"""

import pytest

from repro.api import VerificationQuery
from repro.core.verdict import Verdict
from repro.properties.library import steer_far_left
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.solver import BranchAndBoundSolver, HighsSolver


@pytest.fixture(scope="module")
def encoded(system, provable_threshold):
    risk = steer_far_left(provable_threshold)
    return encode_verification_problem(
        system.engine.suffix,
        system.engine.feature_set("data"),
        risk,
        system.characterizers["bends_right"].as_piecewise_linear(),
    )


@pytest.mark.benchmark(group="e3-provable")
def test_e3_proof_branch_and_bound(benchmark, encoded):
    result = benchmark(lambda: BranchAndBoundSolver().solve(encoded.model))
    assert result.is_unsat


@pytest.mark.benchmark(group="e3-provable")
def test_e3_proof_highs(benchmark, encoded):
    result = benchmark(lambda: HighsSolver().solve(encoded.model))
    assert result.is_unsat


@pytest.mark.benchmark(group="e3-provable")
def test_e3_full_verdict_with_guarantee(benchmark, system, provable_threshold):
    """Proof + statistical annotation, as deployed."""
    risk = steer_far_left(provable_threshold)

    verdict = benchmark(
        lambda: system.engine.run_query(
            VerificationQuery(risk=risk, property_name="bends_right")
        ).verdict
    )
    assert verdict.verdict is Verdict.CONDITIONALLY_SAFE
    assert verdict.statistical_guarantee is not None
