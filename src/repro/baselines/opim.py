"""OPIM-style influence maximization on RR sets (Tang et al. 2018).

Two roles in this repository:

* :class:`OpimNodeSelector` — the per-round engine of the AdaptIM baseline:
  pick the single node with the (approximately) maximum *untruncated*
  expected marginal spread, with the same doubling/confidence-bound skeleton
  as TRIM but on vanilla single-root RR sets.  The paper (Section 6.2)
  explains why this needs far more samples than TRIM in late rounds:
  the RR count is proportional to ``n_i / OPT'_i`` versus TRIM's
  ``eta_i / OPT_i``.
* :func:`opim_influence_maximization` — a standalone k-seed IM solver with
  the classic ``(1 - 1/e)(1 - eps)`` coverage certificate, provided as a
  library feature (and used by tests as an RR-set integration check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.policy import SeedSelector, Selection, SelectionDiagnostics
from repro.core.trim import TrimParameters
from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.bounds import (
    coverage_lower_bound,
    coverage_upper_bound,
    log_binomial,
)
from repro.sampling.rr import RRCollection
from repro.utils.rng import RandomSource, as_generator
from repro.utils.validation import check_fraction, check_positive_int


class OpimNodeSelector(SeedSelector):
    """Single-node selection maximizing the *untruncated* marginal spread.

    Structurally identical to TRIM — a vanilla RR set is an mRR set with one
    root — so the derived constants reuse :class:`TrimParameters` with the
    truncation threshold forced to ``n_i`` (no truncation).  This is exactly
    the design difference the paper evaluates: same machinery, wrong
    objective for seed minimization.  Engine policy comes from ``context``
    (``None`` means ``ExecutionContext()``).
    """

    def __init__(
        self,
        model: DiffusionModel,
        epsilon: float = 0.5,
        max_samples: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ):
        check_fraction(epsilon, "epsilon")
        self.context = context if context is not None else ExecutionContext()
        self.model = model
        self.epsilon = epsilon
        self.max_samples = max_samples
        self.name = "AdaptIM"
        self.batch_size = 1

    def select(self, residual: ResidualGraph, rng: np.random.Generator) -> Selection:
        n = residual.n
        if n == 1:
            return Selection(nodes=[0], diagnostics=SelectionDiagnostics(estimated_gain=1.0))

        # eta := n disables truncation; root count collapses to 1 (RR sets).
        params = TrimParameters(n, n, self.epsilon, self.max_samples)
        pool = RRCollection(
            residual.graph,
            self.model,
            seed=rng,
            context=self.context,
        )
        pool.grow_to(params.theta_0)

        best_node = 0
        certified = 0.0
        iterations_used = params.iterations
        for t in range(params.iterations):
            best_node, coverage = pool.index.argmax_node()
            lower = coverage_lower_bound(coverage, params.a1)
            upper = coverage_upper_bound(coverage, params.a2)
            certified = lower / upper if upper > 0 else 0.0
            if certified >= 1.0 - params.eps_hat or t == params.iterations - 1:
                iterations_used = t + 1
                break
            pool.grow_to(params.pool_size_at(t + 1))

        gain = pool.estimated_node_spread(best_node)
        return Selection(
            nodes=[int(best_node)],
            diagnostics=SelectionDiagnostics(
                samples_generated=len(pool),
                iterations=iterations_used,
                certified_ratio=certified,
                estimated_gain=gain,
            ),
        )


@dataclass(frozen=True)
class InfluenceMaximizationResult:
    """Outcome of the standalone k-seed IM solver."""

    seeds: list[int]
    estimated_spread: float
    samples: int
    certified_ratio: float


def opim_influence_maximization(
    graph: DiGraph,
    model: DiffusionModel,
    k: int,
    epsilon: float = 0.5,
    seed: RandomSource = None,
    max_samples: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> InfluenceMaximizationResult:
    """Select ``k`` seeds maximizing expected spread, OPIM-C style.

    Greedy max coverage over a doubling RR pool with Lemma A.2 certificates;
    stops when the greedy batch is certified
    ``(1 - 1/e)(1 - eps)``-optimal among size-``k`` sets.  ``max_samples``
    caps the pool; ``context`` supplies the engine policy.
    """
    check_positive_int(k, "k")
    check_fraction(epsilon, "epsilon")
    if k > graph.n:
        raise ConfigurationError(f"k={k} exceeds node count {graph.n}")
    rng = as_generator(seed)

    rho = 1.0 - 1.0 / math.e
    delta = 1.0 / graph.n
    log_inv_delta = math.log(6.0 / delta)
    log_choose = log_binomial(graph.n, k)
    root_sum = math.sqrt(log_inv_delta) + math.sqrt((log_choose + log_inv_delta) / rho)
    theta_max = 2.0 * graph.n * root_sum * root_sum / (k * epsilon ** 2)
    if max_samples is not None:
        theta_max = min(theta_max, float(max_samples))
    theta_0 = max(1, int(math.ceil(theta_max * k * epsilon ** 2 / graph.n)))
    iterations = max(1, int(math.ceil(math.log2(theta_max / theta_0))) + 1)
    log_3t_delta = math.log(3.0 * iterations / delta)
    a1 = log_3t_delta + log_choose
    a2 = log_3t_delta

    pool = RRCollection(graph, model, seed=rng, context=context)
    pool.grow_to(theta_0)
    seeds: list[int] = []
    certified = 0.0
    for t in range(iterations):
        greedy = pool.index.greedy_max_coverage(k)
        seeds = greedy.nodes
        lower = coverage_lower_bound(greedy.covered, a1)
        upper = coverage_upper_bound(greedy.covered / rho, a2)
        certified = lower / upper if upper > 0 else 0.0
        if certified >= rho * (1.0 - epsilon) or t == iterations - 1:
            break
        pool.grow_to(int(min(theta_0 * (2 ** (t + 1)), math.ceil(theta_max))))

    return InfluenceMaximizationResult(
        seeds=[int(v) for v in seeds],
        estimated_spread=pool.estimated_spread(seeds),
        samples=len(pool),
        certified_ratio=certified,
    )
