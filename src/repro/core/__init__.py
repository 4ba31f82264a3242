"""End-to-end workflow (Figure 1 of the paper).

:mod:`repro.core.pipeline` builds a fully trained system from a config
in one call; its ``system.engine`` is a :class:`repro.api.VerificationEngine`,
which owns cut-layer selection, characterizer attachment, feature-set
construction (data-derived ``S~`` or statically propagated ``S``),
encoding caches, solving and verdict interpretation.
"""

from repro.core.config import ExperimentConfig
from repro.core.pipeline import VerifiedSystem, build_verified_system
from repro.core.verdict import Verdict, VerificationVerdict

__all__ = [
    "ExperimentConfig",
    "Verdict",
    "VerificationVerdict",
    "VerifiedSystem",
    "build_verified_system",
]
