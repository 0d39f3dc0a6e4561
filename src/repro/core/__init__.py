"""Core algorithms: the ASTI framework, TRIM, and TRIM-B."""

from repro.core.asti import (
    ASTI,
    AdaptiveRunResult,
    RoundRecord,
    run_adaptive_policy,
    run_adaptive_policy_batch,
)
from repro.core.policy import (
    FirstNodeSelector,
    RandomNodeSelector,
    SeedSelector,
    Selection,
    SelectionDiagnostics,
)
from repro.core.session import AdaptiveSession, AdaptiveSessionBatch, Observation
from repro.core.trim import TrimSelector
from repro.core.trim_b import TrimBParameters, TrimBSelector, batch_guarantee

__all__ = [
    "ASTI",
    "AdaptiveRunResult",
    "RoundRecord",
    "run_adaptive_policy",
    "run_adaptive_policy_batch",
    "SeedSelector",
    "Selection",
    "SelectionDiagnostics",
    "FirstNodeSelector",
    "RandomNodeSelector",
    "AdaptiveSession",
    "AdaptiveSessionBatch",
    "Observation",
    "TrimSelector",
    "TrimBSelector",
    "TrimBParameters",
    "batch_guarantee",
]
