"""Sampling substrate: RR sets, mRR sets, coverage, concentration bounds."""

from repro.sampling.bounds import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    coverage_lower_bound,
    coverage_upper_bound,
    log_binomial,
)
from repro.sampling.coverage import CoverageIndex, GreedyCoverResult
from repro.sampling.engine import (
    BatchSampler,
    RandomizedRoundingRootDrawer,
    RootDrawer,
    UniformRootDrawer,
    mrr_batch_sampler,
    rr_batch_sampler,
)
from repro.sampling.rr import RRCollection, RRSampler
from repro.sampling.mrr import (
    CarriedMRRPool,
    CarryDiagnostics,
    MRRCollection,
    MRRSampler,
    RootCountRule,
    build_round_pool,
    estimate_truncated_spread_mrr,
)
from repro.sampling.estimators import (
    EstimatorGuarantee,
    MRR_FIXED_CEIL,
    MRR_FIXED_FLOOR,
    MRR_RANDOMIZED_ROUNDING,
    mrr_truncated_estimate,
    rr_spread_estimate,
    rr_truncated_bias_factor,
)

__all__ = [
    "coverage_lower_bound",
    "coverage_upper_bound",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "log_binomial",
    "CoverageIndex",
    "GreedyCoverResult",
    "BatchSampler",
    "RootDrawer",
    "UniformRootDrawer",
    "RandomizedRoundingRootDrawer",
    "rr_batch_sampler",
    "mrr_batch_sampler",
    "RRSampler",
    "RRCollection",
    "MRRSampler",
    "CarriedMRRPool",
    "CarryDiagnostics",
    "MRRCollection",
    "RootCountRule",
    "build_round_pool",
    "estimate_truncated_spread_mrr",
    "EstimatorGuarantee",
    "MRR_RANDOMIZED_ROUNDING",
    "MRR_FIXED_FLOOR",
    "MRR_FIXED_CEIL",
    "rr_spread_estimate",
    "mrr_truncated_estimate",
    "rr_truncated_bias_factor",
]
