"""The linear threshold (LT) model (Kempe et al. 2003).

Every node ``v`` draws a threshold ``lambda_v ~ Uniform[0, 1]``; it activates
once the probabilities of its edges from active in-neighbors sum past the
threshold.  The model requires incoming probabilities to sum to at most 1
per node (the paper's weighted-cascade weights satisfy this with equality
wherever ``indeg > 0``).

The equivalent live-edge process — each node independently keeps at most one
incoming edge, edge ``(u, v)`` with probability ``p(u, v)`` — drives both
:meth:`LinearThreshold.sample_realization` and the reverse random walk used
for (m)RR sets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.diffusion.base import (
    DiffusionModel,
    expand_labeled_frontier,
    normalize_seeds,
    run_labeled_bfs,
    tile_starts,
)
from repro.diffusion.realization import LTRealization
from repro.errors import ConfigurationError, DiffusionError
from repro.graph.digraph import DiGraph
from repro.kernels import resolve_backend
from repro.kernels.dispatch import lt_forward_expander, lt_walk_expander
from repro.utils.arrays import sorted_unique
from repro.utils.rng import RandomSource, as_generator

_SUM_TOLERANCE = 1e-9


def check_lt_validity(graph: DiGraph) -> None:
    """Raise :class:`DiffusionError` unless in-probabilities sum to <= 1.

    The verdict is computed once per graph and kept in its derived-value
    cache, so every entry point can afford to check.
    """
    violation = graph.cached("lt_violation", _lt_violation)
    if violation is not None:
        raise DiffusionError(violation)


def _lt_violation(graph: DiGraph) -> Optional[str]:
    src, dst, probs = graph.edge_arrays()
    sums = np.zeros(graph.n, dtype=np.float64)
    np.add.at(sums, dst, probs)
    worst = float(sums.max()) if graph.n else 0.0
    if worst <= 1.0 + _SUM_TOLERANCE:
        return None
    return (
        f"LT requires incoming probabilities to sum to <= 1; node "
        f"{int(sums.argmax())} has sum {worst:.6f}"
    )


def _cumulative_in_probs(graph: DiGraph) -> np.ndarray:
    """Running sum of the in-CSR probabilities, cached per graph.

    ``reverse_sample_batch`` binary-searches this array once per BFS
    level; recomputing the O(m) cumsum per engine call would dominate
    small batches.

    The running sum must accumulate in float64 even when the graph
    stores compact float32 probabilities: each addend upcasts exactly,
    so the cumulative array (and every walk derived from it) is
    bit-identical across storage policies.
    """
    return graph.cached(
        "lt_cumulative_in_probs",
        lambda g: np.cumsum(g.in_csr[2], dtype=np.float64),
    )


class LinearThreshold(DiffusionModel):
    """Stateless LT model; every entry point checks the weight constraint."""

    name = "LT"

    def sample_realization(
        self, graph: DiGraph, seed: RandomSource = None
    ) -> LTRealization:
        """Each node keeps at most one incoming edge (live-edge sampling)."""
        check_lt_validity(graph)
        rng = as_generator(seed)
        indptr, sources, probs = graph.in_csr
        chosen = np.full(graph.n, -1, dtype=np.int64)
        draws = rng.random(graph.n)
        for v in range(graph.n):
            start, end = int(indptr[v]), int(indptr[v + 1])
            if start == end:
                continue
            acc = 0.0
            x = draws[v]
            for pos in range(start, end):
                # float() keeps the accumulation in float64 under compact
                # float32 storage (the upcast of each addend is exact).
                acc += float(probs[pos])
                if x < acc:
                    chosen[v] = sources[pos]
                    break
        return LTRealization(graph, chosen)

    def simulate_batch(
        self,
        graph: DiGraph,
        seeds,
        n_sims: int,
        seed: RandomSource = None,
        scratch: np.ndarray = None,
        kernel: str = "auto",
    ):
        """One multi-cascade labeled forward BFS of the threshold process.

        Per ``(simulation, node)`` pair the batch keeps a running sum of
        incoming weight from activated neighbors and a uniform threshold,
        in flat ``n_sims * n`` arrays keyed like the visitation bitset; a
        node activates the first level its sum crosses its threshold,
        exactly as in the scalar threshold process.  Thresholds are drawn
        lazily on a pair's first touch — iid uniforms, so distributionally
        identical to drawing them all up front, but the number of draws
        tracks the cascades' actual reach instead of ``n_sims * n`` (the
        threshold array itself stays ``np.empty``: allocated virtual, only
        touched pages materialize).  The flat float arrays are the memory
        price of the batch, which is what the estimator chunking
        (``mc_batch_size``) bounds.
        """
        check_lt_validity(graph)
        if n_sims < 0:
            raise ConfigurationError(f"n_sims must be >= 0, got {n_sims}")
        seeds = normalize_seeds(graph, seeds)
        rng = as_generator(seed)
        indptr, targets, probs = graph.out_csr
        n = graph.n
        thresholds = np.empty(n_sims * n, dtype=np.float64)
        accumulated = np.empty(n_sims * n, dtype=np.float64)
        touched_before = np.zeros(n_sims * n, dtype=bool)
        starts, starts_indptr = tile_starts(seeds, n_sims)

        backend = resolve_backend(kernel, graph)
        if backend.kernels is not None:
            return run_labeled_bfs(
                n,
                starts,
                starts_indptr,
                scratch=scratch,
                expand=lt_forward_expander(
                    backend, indptr, targets, probs, n, rng,
                    thresholds, accumulated, touched_before,
                ),
            )

        def accumulate_and_cross(frontier_sids, frontier_nodes):
            positions, owners, _ = expand_labeled_frontier(
                indptr, frontier_sids, frontier_nodes
            )
            if len(positions) == 0:
                return positions
            keys = owners * n + targets[positions]
            touched = sorted_unique(keys)
            fresh = touched[~touched_before[touched]]
            accumulated[fresh] = 0.0
            thresholds[fresh] = rng.random(len(fresh))
            touched_before[fresh] = True
            np.add.at(accumulated, keys, probs[positions])
            return touched[accumulated[touched] >= thresholds[touched]]

        return run_labeled_bfs(
            n, starts, starts_indptr, accumulate_and_cross, scratch
        )

    def reverse_sample_batch(
        self,
        graph: DiGraph,
        roots: np.ndarray,
        roots_indptr: np.ndarray,
        rng: np.random.Generator,
        scratch: np.ndarray = None,
        kernel: str = "auto",
    ):
        """Batched reverse random walks via one searchsorted per level.

        Every visited ``(sample, node)`` pair keeps at most one incoming
        edge.  The per-node prefix scan of the single-sample walk becomes a
        binary search: with ``cum`` the global running sum of the in-CSR
        probabilities, node ``v``'s chosen edge for a uniform draw ``x`` is
        the first in-CSR position whose within-row cumulative probability
        exceeds ``x`` — i.e. ``searchsorted(cum, cum_before_row(v) + x)`` —
        and one call resolves the whole frontier.  A draw past the row's
        total probability keeps no edge, exactly like the scalar scan.
        """
        check_lt_validity(graph)
        indptr, sources, probs = graph.in_csr
        n = graph.n
        cum = _cumulative_in_probs(graph)

        backend = resolve_backend(kernel, graph)
        if backend.kernels is not None:
            return run_labeled_bfs(
                n,
                roots,
                roots_indptr,
                scratch=scratch,
                expand=lt_walk_expander(backend, indptr, sources, cum, n, rng),
            )

        def keep_one_in_edge(frontier_sids, frontier_nodes):
            starts = indptr[frontier_nodes]
            # An edgeless residual has an empty ``cum``: every walk stops.
            base = np.where(starts > 0, cum[starts - 1], 0.0) if len(cum) else 0.0
            draws = rng.random(len(frontier_nodes))
            chosen = np.searchsorted(cum, base + draws, side="right")
            kept = chosen < indptr[frontier_nodes + 1]
            return frontier_sids[kept] * n + sources[chosen[kept]]

        return run_labeled_bfs(
            n, roots, roots_indptr, keep_one_in_edge, scratch
        )
