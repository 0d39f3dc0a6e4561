"""Single-root reverse reachable (RR) sets (Borgs et al. 2014).

A random RR set is the set of nodes that reach one uniformly random root in
a random realization.  It is the unbiased estimator behind modern influence
maximization: ``E[I(S)] = n * Pr[R intersects S]``.

The paper shows RR sets are *biased* for the truncated objective (Section
3.2) — that analysis is reproduced in our tests — but the IM baselines
(OPIM / AdaptIM / ATEUC) still run on them, so we provide a first-class
implementation here.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from repro.diffusion.base import DiffusionModel
from repro.errors import SamplingError
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import rr_batch_sampler
from repro.utils.rng import RandomSource, as_generator


class RRCollection:
    """A coverage index plus the batched engine that fills it.

    Convenience wrapper used by the baselines: supports OPIM-style doubling
    (``grow_to``) and converts coverage counts into spread estimates.  Pool
    growth runs through the vectorized
    :class:`~repro.sampling.engine.BatchSampler` under ``context``'s
    engine policy.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        seed: RandomSource = None,
        context: Optional[ExecutionContext] = None,
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample RR sets on an empty graph")
        self.graph = graph
        self.engine = rr_batch_sampler(graph, model, as_generator(seed), context)
        self.index = CoverageIndex(graph.n)

    def __len__(self) -> int:
        return len(self.index)

    def grow_to(self, theta: int) -> None:
        """Ensure the pool holds at least ``theta`` sets (batched)."""
        missing = theta - len(self.index)
        if missing > 0:
            self.engine.fill(self.index, missing)

    def estimated_spread(self, seeds: Sequence[int]) -> float:
        """``E[I(S)] ~ n * Lambda_R(S) / |R|`` (unbiased)."""
        if len(self.index) == 0:
            raise SamplingError("no RR sets generated yet")
        coverage = self.index.coverage_of_set(seeds)
        return self.graph.n * coverage / len(self.index)

    def estimated_node_spread(self, node: int) -> float:
        """Single-node version using the O(1) coverage counter."""
        if len(self.index) == 0:
            raise SamplingError("no RR sets generated yet")
        return self.graph.n * self.index.coverage_of(node) / len(self.index)
