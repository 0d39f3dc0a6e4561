"""OPIM-style influence maximization on RR sets (Tang et al. 2018).

Two roles in this repository:

* :class:`OpimNodeSelector` — the per-round engine of the AdaptIM baseline:
  pick the single node with the (approximately) maximum *untruncated*
  expected marginal spread, with TRIM's schedule and doubling loop but on
  vanilla single-root RR sets.  The paper (Section 6.2)
  explains why this needs far more samples than TRIM in late rounds:
  the RR count is proportional to ``n_i / OPT'_i`` versus TRIM's
  ``eta_i / OPT_i``.
* :func:`opim_influence_maximization` — a standalone k-seed IM solver with
  the classic ``(1 - 1/e)(1 - eps)`` coverage certificate, on the same
  loop with OPIM-C's own Line 1 constants, provided as a
  library feature (and used by tests as an RR-set integration check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.policy import SeedSelector, Selection, SelectionDiagnostics
from repro.core.trim_b import DoublingSchedule, TrimBParameters, certified_doubling
from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.rr import RRCollection
from repro.utils.rng import RandomSource
from repro.utils.validation import check_fraction, check_positive_int


class OpimNodeSelector(SeedSelector):
    """Single-node selection maximizing the *untruncated* marginal spread.

    Structurally identical to TRIM — a vanilla RR set is an mRR set with one
    root — so the round is TRIM's schedule and loop
    (:class:`~repro.core.trim_b.TrimBParameters` at ``b = 1``,
    :func:`~repro.core.trim_b.certified_doubling`) with the truncation
    threshold forced to ``n_i`` (no truncation).  This is exactly the
    design difference the paper evaluates: same machinery, wrong objective
    for seed minimization.  Engine policy comes from ``context`` (``None``
    means ``ExecutionContext()``).
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
        schedule = TrimBParameters(n, n, self.epsilon, 1, self.max_samples)
        pool = RRCollection(
            residual.graph,
            self.model,
            seed=rng,
            context=self.context,
        )
        pick = certified_doubling(pool, schedule)
        return Selection(
            nodes=pick.nodes,
            diagnostics=SelectionDiagnostics(
                samples_generated=len(pool),
                iterations=pick.iterations,
                certified_ratio=pick.certified_ratio,
                estimated_gain=n * pick.coverage / len(pool),
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
    # OPIM-C's Line 1: delta = 1/n, eps used as is, the greedy's 1 - 1/e.
    schedule = DoublingSchedule(
        graph.n, k, 1.0 / graph.n, epsilon, 1.0 - 1.0 / math.e, max_samples
    )
    pool = RRCollection(graph, model, seed=seed, context=context)
    pick = certified_doubling(pool, schedule)
    return InfluenceMaximizationResult(
        seeds=pick.nodes,
        estimated_spread=graph.n * pick.coverage / len(pool),
        samples=len(pool),
        certified_ratio=pick.certified_ratio,
    )
