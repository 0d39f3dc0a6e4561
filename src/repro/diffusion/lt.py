"""The linear threshold (LT) model (Kempe et al. 2003).

Every node ``v`` draws a threshold ``lambda_v ~ Uniform[0, 1]``; it activates
once the probabilities of its edges from active in-neighbors sum past the
threshold.  The model requires incoming probabilities to sum to at most 1
per node (the paper's weighted-cascade weights satisfy this with equality
wherever ``indeg > 0``).

The equivalent live-edge process — each node independently keeps at most one
incoming edge, edge ``(u, v)`` with probability ``p(u, v)`` — drives both
:meth:`LinearThreshold.sample_worlds` and the reverse random walk used for
(m)RR sets.
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

#: ``(world, node)`` rows per :meth:`LinearThreshold.sample_worlds` chunk;
#: bounds its per-row scan state to a few tens of MB.
_WORLD_CHUNK_ELEMENTS = 1_000_000


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
    """Running sum of the in-CSR probabilities after a leading 0, cached
    per graph: entry ``indptr[v]`` is the sum before node ``v``'s row.

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
        lambda g: np.concatenate(([0.0], np.cumsum(g.in_csr[2], dtype=np.float64))),
    )


#: Frontier size from which the reverse walk searches its targets sorted:
#: on epinions-sim (23.7k in-edges) sorting costs more than it saves below
#: ~256 targets and halves the search's cost per target from 1k on.
_SORTED_SEARCH_MIN = 256


class LinearThreshold(DiffusionModel):
    """Stateless LT model; every entry point checks the weight constraint."""

    name = "LT"

    def sample_realization(
        self, graph: DiGraph, seed: RandomSource = None
    ) -> LTRealization:
        """Each node keeps at most one incoming edge (live-edge sampling)."""
        _, chosen = self.sample_worlds(graph, as_generator(seed), 1)
        return LTRealization(graph, chosen)

    def sample_worlds(
        self, graph: DiGraph, rng: np.random.Generator, count: int
    ) -> tuple[str, np.ndarray]:
        """``count`` live-edge worlds in one vectorized pass: ``("lt", chosen)``.

        ``chosen[w * n + v]`` is the in-neighbor node ``v`` keeps in world
        ``w`` (``-1`` for none).  One ``rng.random(count * n)`` draw
        consumes the stream exactly as ``count`` per-world draws of ``n``
        uniforms do, and node ``v`` keeps the first in-CSR edge whose
        running probability sum exceeds its uniform.  The sums step
        through in-edge positions for every still-open ``(world, node)``
        row at once, adding in float64 in the scalar scan's order (each
        compact float32 addend upcasts exactly), so the worlds are
        bit-identical to one scan per node.
        """
        check_lt_validity(graph)
        n = graph.n
        indptr, sources, probs = graph.in_csr
        draws = rng.random(count * n)
        chosen = np.full(count * n, -1, dtype=np.int64)
        nodes = np.flatnonzero(np.diff(indptr))  # nodes with in-edges
        per_chunk = max(1, _WORLD_CHUNK_ELEMENTS // max(1, len(nodes)))
        for first in range(0, count, per_chunk):
            worlds = np.arange(first, min(first + per_chunk, count), dtype=np.int64)
            rows = (worlds[:, None] * n + nodes).reshape(-1)
            position = np.tile(indptr[nodes], len(worlds))
            end = np.tile(indptr[nodes + 1], len(worlds))
            threshold = draws[rows]
            running = np.zeros(len(rows), dtype=np.float64)
            while len(rows):
                running += probs[position]
                kept = threshold < running
                chosen[rows[kept]] = sources[position[kept]]
                position += 1
                still_open = ~kept & (position < end)
                rows, position, end = rows[still_open], position[still_open], end[still_open]
                threshold, running = threshold[still_open], running[still_open]
        return "lt", chosen

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
        row_base = _cumulative_in_probs(graph)
        cum = row_base[1:]

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
            targets = row_base[indptr[frontier_nodes]]
            targets += rng.random(len(frontier_nodes))
            if len(targets) < _SORTED_SEARCH_MIN:
                chosen = np.searchsorted(cum, targets, side="right")
            else:
                # Searched in sorted order (the search then walks ``cum`` in
                # one direction), then scattered back: each position equals
                # the unsorted search's.
                order = np.argsort(targets)
                targets = targets[order]
                chosen = np.empty(len(order), dtype=np.intp)
                chosen[order] = np.searchsorted(cum, targets, side="right")
                del order
            del targets
            # An edgeless residual has an empty ``cum``: every walk stops.
            kept = chosen < indptr[frontier_nodes + 1]
            return frontier_sids[kept] * n + sources[chosen[kept]]

        return run_labeled_bfs(
            n, roots, roots_indptr, keep_one_in_edge, scratch
        )
