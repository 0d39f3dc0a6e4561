"""AdaptIM: the adaptive influence-maximization comparator (paper Sec. 6.1).

Derived from Han et al.'s AdaptIM-1 [23], modified (as the paper's authors
did) to run until the seed-minimization stop condition: it iteratively runs
a non-adaptive IM step — pick the node with the maximum expected *marginal
influence spread* on the residual graph — observes, and repeats until the
threshold ``eta`` is reached.

Crucial contrast with ASTI: the objective is the vanilla spread, not the
truncated spread.  Empirically it selects nearly as few seeds as ASTI but
needs vastly more RR samples in late rounds (its sample count scales with
``n_i / OPT'_i`` rather than ``eta_i / OPT_i``), which is exactly the
efficiency gap Figures 5 and 7 show.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Union

from repro.baselines.opim import OpimNodeSelector
from repro.core.asti import (
    AdaptiveRunResult,
    run_adaptive_policy,
    run_adaptive_policy_batch,
)
from repro.diffusion.base import DiffusionModel
from repro.diffusion.realization import Realization
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.utils.rng import RandomSource
from repro.utils.validation import check_fraction


class AdaptIM:
    """Facade mirroring :class:`repro.core.asti.ASTI` for the comparator."""

    name = "AdaptIM"

    def __init__(
        self,
        model: DiffusionModel,
        epsilon: float = 0.5,
        max_samples: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ):
        check_fraction(epsilon, "epsilon")
        # Same context semantics as ASTI: the caller that built the context
        # closes it; ``None`` means the defaults.
        self.context = context if context is not None else ExecutionContext()
        self.model = model
        self.epsilon = epsilon
        self.selector = OpimNodeSelector(
            model,
            epsilon=epsilon,
            max_samples=max_samples,
            context=self.context,
        )

    def run(
        self,
        graph: DiGraph,
        eta: int,
        realization: Optional[Realization] = None,
        seed: RandomSource = None,
        max_rounds: Optional[int] = None,
    ) -> AdaptiveRunResult:
        """Adaptive loop with the untruncated per-round objective."""
        return run_adaptive_policy(
            graph, eta, self.model, self.selector, realization, seed,
            max_rounds, kernel=self.context.kernel_backend,
        )

    def run_batch(
        self,
        graph: DiGraph,
        eta: int,
        realizations: Sequence[Realization],
        seeds: Union[RandomSource, Sequence[RandomSource]] = None,
        max_rounds: Optional[int] = None,
    ) -> list[AdaptiveRunResult]:
        """Batched engine entry; the OPIM selector has no pool carry-over,
        so sessions share only the round-synchronous observation sweep."""
        return run_adaptive_policy_batch(
            graph, eta, self.model, self.selector, realizations, seeds,
            max_rounds, kernel=self.context.kernel_backend,
        )
