"""E1 (Figure 1): the end-to-end workflow.

Benchmarks the full verification query — expressed as a declarative
:class:`repro.api.VerificationQuery` — for the canonical
conditionally-provable property, and, separately, the characterizer +
suffix evaluation path that runs per camera frame.  The query benchmark
runs on a warmed engine, so it measures the steady-state (cached
encoding) cost a campaign pays per query; ``bench_campaign.py`` measures
the cold path.
"""

import pytest

from repro.api import VerificationQuery
from repro.core.verdict import Verdict
from repro.properties.library import steer_far_left


@pytest.mark.benchmark(group="e1-workflow")
def test_e1_conditional_proof_query(benchmark, system, provable_threshold):
    """One full Definition-1 query (encode + solve, UNSAT proof)."""
    query = VerificationQuery(
        risk=steer_far_left(provable_threshold), property_name="bends_right"
    )

    result = benchmark(lambda: system.engine.run_query(query))
    assert result.verdict.verdict is Verdict.CONDITIONALLY_SAFE


@pytest.mark.benchmark(group="e1-workflow")
def test_e1_per_frame_inference(benchmark, system, heldout_images):
    """The deployed path: perception forward pass on one frame."""
    frame = heldout_images[:1]
    result = benchmark(lambda: system.model.forward(frame))
    assert result.shape == (1, 2)


@pytest.mark.benchmark(group="e1-workflow")
def test_e1_pipeline_characterizer_training(benchmark, system):
    """Training one input property characterizer on extracted features."""
    from repro.perception.characterizer import train_characterizer

    labels = system.train_data.property_labels("bends_right")
    val_labels = system.val_data.property_labels("bends_right")

    def train_once():
        characterizer, _ = train_characterizer(
            "bends_right",
            system.cut_layer,
            system.train_features,
            labels,
            system.val_features,
            val_labels,
            hidden=(16,),
            epochs=30,
            seed=1,
        )
        return characterizer

    characterizer = benchmark(train_once)
    assert characterizer.train_accuracy > 0.5
