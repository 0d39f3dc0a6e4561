"""ATEUC: non-adaptive seed minimization (Han et al. 2017, paper's [22]).

The state-of-the-art *non-adaptive* comparator of the evaluation.  ATEUC
selects one seed set up front such that the **expected** spread reaches
``eta``; it never observes the cascade, so on individual realizations it can
undershoot (the paper's Table 3 marks these N/A) or badly overshoot
(Figure 8).

Algorithm sketch (following the description in the paper's Sections 5-6 and
the structure of [22]):

* grow a pool of RR sets; greedy-cover nodes until the *certified lower
  bound* of the estimated spread ``n * Lambda / |R|`` reaches ``eta`` — this
  candidate ``S_u`` is a feasible-in-expectation solution and upper-bounds
  the optimal seed count (up to estimation error);
* the shortest greedy prefix covering ``(1 - 1/e)`` of the coverage worth
  ``eta`` lower-bounds the optimal count ``|S_l|``: greedy with ``|OPT|``
  picks covers at least ``1 - 1/e`` of what OPT covers, and OPT covers
  ``eta`` in expectation;
* accept when ``|S_u| <= gamma * |S_l|`` (gamma = 2 in [22]); otherwise
  double the pool and repeat.

The early-accept dynamics explain the running-time pattern in Figure 5:
the larger ``eta``, the sooner ``|S_u| <= 2 |S_l|`` holds, so ATEUC gets
*faster* as the target grows — opposite to the adaptive algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.bounds import coverage_lower_bound
from repro.sampling.rr import RRCollection
from repro.utils.rng import RandomSource, as_generator
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_positive_int

_ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


@dataclass(frozen=True)
class NonAdaptiveRunResult:
    """Outcome of a non-adaptive seed-minimization run.

    Unlike :class:`~repro.core.asti.AdaptiveRunResult`, feasibility is *not*
    guaranteed: evaluate ``seeds`` against a concrete realization to learn
    whether the target was actually met.
    """

    policy_name: str
    eta: int
    seeds: list[int]
    estimated_spread: float
    lower_bound_count: int      # |S_l|: certified lower bound on OPT's size
    samples: int
    seconds: float

    @property
    def seed_count(self) -> int:
        return len(self.seeds)


class ATEUC:
    """Non-adaptive seed minimization with upper/lower candidate sets.

    Parameters
    ----------
    model:
        Diffusion model (IC or LT).
    gamma:
        Acceptance ratio for ``|S_u| <= gamma * |S_l|`` (default 2, as
        recommended in [22]).
    theta_initial, max_doublings:
        Pool schedule.  The defaults (512 sets, 6 doublings = 32K sets max)
        keep pure-Python runs bounded while preserving the doubling
        structure; when the budget runs out the best-effort candidate is
        returned, mirroring how [22]'s worst case is "prohibitively large"
        (paper Section 5) yet the algorithm is anytime.
    context:
        Engine policy for the RR pool (``None`` means
        ``ExecutionContext()``); never closed here.
    """

    name = "ATEUC"

    def __init__(
        self,
        model: DiffusionModel,
        gamma: float = 2.0,
        theta_initial: int = 512,
        max_doublings: int = 6,
        context: Optional[ExecutionContext] = None,
    ):
        check_positive_int(theta_initial, "theta_initial")
        check_positive_int(max_doublings, "max_doublings")
        if gamma < 1.0:
            raise ConfigurationError(f"gamma must be >= 1, got {gamma}")
        self.context = context if context is not None else ExecutionContext()
        self.model = model
        self.gamma = gamma
        self.theta_initial = theta_initial
        self.max_doublings = max_doublings

    def run(
        self,
        graph: DiGraph,
        eta: int,
        seed: RandomSource = None,
    ) -> NonAdaptiveRunResult:
        """Select a seed set whose certified expected spread reaches ``eta``."""
        check_positive_int(eta, "eta")
        if eta > graph.n:
            raise ConfigurationError(f"eta={eta} exceeds node count {graph.n}")
        rng = as_generator(seed)
        pool = RRCollection(
            graph,
            self.model,
            seed=rng,
            context=self.context,
        )
        timer = Stopwatch()

        # Union-bounded confidence parameter across nodes and doublings.
        a = math.log(3.0 * (self.max_doublings + 1) * graph.n)

        upper_candidate: list[int] = []
        lower_count = 1
        estimated = 0.0
        with timer:
            theta = self.theta_initial
            for _ in range(self.max_doublings + 1):
                pool.grow_to(theta)
                upper_candidate, lower_count, estimated, certified = (
                    self._candidates(pool, graph.n, eta, a)
                )
                if certified and len(upper_candidate) <= self.gamma * lower_count:
                    break
                theta *= 2
        return NonAdaptiveRunResult(
            policy_name=self.name,
            eta=eta,
            seeds=upper_candidate,
            estimated_spread=estimated,
            lower_bound_count=lower_count,
            samples=len(pool),
            seconds=timer.elapsed,
        )

    def _candidates(
        self, pool: RRCollection, n: int, eta: int, a: float
    ) -> tuple[list[int], int, float, bool]:
        """One greedy sweep producing ``(S_u, |S_l|, estimate, certified)``.

        A single greedy max-coverage pass yields both candidates: ``S_u`` is
        the prefix whose *lower-bounded* spread reaches ``eta``; ``|S_l|``
        is the length of the prefix whose coverage first reaches
        ``(1 - 1/e)`` of the coverage worth ``eta``.
        """
        theta = len(pool.index)
        scale = n / theta
        target_cover = eta / theta * theta / scale  # == eta / scale
        # The LB needs slack ~ sqrt(2 a x) + O(a) beyond the target; sweep
        # far enough that the certified prefix exists when it can.
        slack = math.sqrt(2.0 * a * target_cover) + 2.0 * a
        greedy = pool.index.greedy_max_coverage(
            n, stop_at_coverage=int(math.ceil(target_cover + slack)) + 1
        )

        upper_candidate: list[int] = []
        lower_count = 0
        covered = 0
        estimated = 0.0
        certified = False
        for idx, gain in enumerate(greedy.marginal_gains):
            covered += gain
            if lower_count == 0 and covered >= _ONE_MINUS_INV_E * target_cover:
                lower_count = idx + 1
            if not certified and coverage_lower_bound(covered, a) >= target_cover:
                upper_candidate = [int(v) for v in greedy.nodes[: idx + 1]]
                estimated = covered * scale
                certified = True
                break
        if not certified:
            # Budgeted best effort: fall back to the point-estimate prefix,
            # or the whole sweep when even that is out of reach.
            covered = 0
            for idx, gain in enumerate(greedy.marginal_gains):
                covered += gain
                if covered >= target_cover:
                    upper_candidate = [int(v) for v in greedy.nodes[: idx + 1]]
                    estimated = covered * scale
                    break
            else:
                upper_candidate = [int(v) for v in greedy.nodes]
                estimated = covered * scale
        if lower_count == 0:
            lower_count = max(1, len(upper_candidate))
        return upper_candidate, lower_count, estimated, certified
