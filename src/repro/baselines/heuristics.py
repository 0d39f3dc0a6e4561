"""Cheap heuristic baselines.

Not part of the paper's headline comparison, but indispensable for sanity
checks and for users who want a zero-theory reference point:

* adaptive highest-degree seeding (:class:`DegreeSelector`),
* adaptive uniform-random seeding (re-exported from ``core.policy``),
* non-adaptive degree-ordered seed minimization with Monte-Carlo
  verification (:func:`degree_seed_minimization`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.policy import RandomNodeSelector, SeedSelector, Selection, SelectionDiagnostics
from repro.diffusion.base import DiffusionModel
from repro.diffusion.montecarlo import estimate_spread
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.utils.rng import RandomSource, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "DegreeSelector",
    "RandomNodeSelector",
    "degree_seed_minimization",
    "DegreeMinimizationResult",
]


class DegreeSelector(SeedSelector):
    """Adaptive heuristic: seed the highest out-degree inactive node.

    Degree is recomputed on the residual graph each round, so the heuristic
    does benefit from adaptivity — it just ignores propagation
    probabilities and multi-hop structure.
    """

    name = "degree"

    def select(self, residual: ResidualGraph, rng: np.random.Generator) -> Selection:
        degrees = residual.graph.out_degrees()
        node = int(degrees.argmax())
        return Selection(
            nodes=[node],
            diagnostics=SelectionDiagnostics(estimated_gain=float(degrees[node])),
        )


@dataclass(frozen=True)
class DegreeMinimizationResult:
    """Outcome of the non-adaptive degree heuristic."""

    seeds: list[int]
    estimated_spread: float
    eta: int

    @property
    def seed_count(self) -> int:
        return len(self.seeds)


def degree_seed_minimization(
    graph: DiGraph,
    model: DiffusionModel,
    eta: int,
    samples: int = 200,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> DegreeMinimizationResult:
    """Add nodes in decreasing out-degree until MC spread reaches ``eta``.

    The simplest non-adaptive seed-minimization strategy; used in tests as
    a floor that ATEUC must beat (or at least match) on seed count.  Each
    verification estimate runs on the batched forward engine under
    ``context``'s ``mc_batch_size`` / ``mc_tolerance`` policy.
    """
    check_positive_int(eta, "eta")
    check_positive_int(samples, "samples")
    if eta > graph.n:
        raise ConfigurationError(f"eta={eta} exceeds node count {graph.n}")
    rng = as_generator(seed)
    order = np.argsort(-graph.out_degrees(), kind="stable")
    seeds: list[int] = []
    estimate = 0.0
    for node in order:
        seeds.append(int(node))
        estimate = estimate_spread(
            graph, model, seeds, samples=samples, seed=rng, context=context
        ).mean
        if estimate >= eta:
            break
    return DegreeMinimizationResult(seeds=seeds, estimated_spread=estimate, eta=eta)
