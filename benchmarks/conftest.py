"""Shared benchmark fixtures: one trained system reused by every bench."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExperimentConfig, build_verified_system
from repro.verification.output_range import output_range


@pytest.fixture(scope="session")
def system():
    """The benchmark system: 500-scene ODD, conv perception, two properties."""
    config = ExperimentConfig(
        train_scenes=500,
        val_scenes=200,
        epochs=30,
        feature_width=12,
        properties=("bends_right", "bends_left"),
        seed=0,
    )
    return build_verified_system(config)


@pytest.fixture(scope="session")
def provable_threshold(system):
    """Adaptive 'far left' frontier: max waypoint over S~ ∩ {h accepts}."""
    reach = output_range(
        system.engine.suffix,
        system.engine.feature_set("data"),
        system.characterizers["bends_right"].as_piecewise_linear(),
    )
    return float(reach.upper) + 0.25


@pytest.fixture(scope="session")
def heldout_images(system):
    return np.asarray(system.val_data.images)
