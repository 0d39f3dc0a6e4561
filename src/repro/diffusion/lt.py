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

from collections.abc import Sequence

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
from repro.graph.digraph import DiGraph, gather_csr_rows
from repro.kernels import resolve_backend
from repro.kernels.dispatch import lt_forward_expander, lt_walk_expander
from repro.utils.arrays import sorted_unique
from repro.utils.rng import RandomSource, as_generator

_SUM_TOLERANCE = 1e-9


def check_lt_validity(graph: DiGraph) -> None:
    """Raise :class:`DiffusionError` unless in-probabilities sum to <= 1."""
    src, dst, probs = graph.edge_arrays()
    sums = np.zeros(graph.n, dtype=np.float64)
    np.add.at(sums, dst, probs)
    worst = float(sums.max()) if graph.n else 0.0
    if worst > 1.0 + _SUM_TOLERANCE:
        offender = int(sums.argmax())
        raise DiffusionError(
            f"LT requires incoming probabilities to sum to <= 1; node "
            f"{offender} has sum {worst:.6f}"
        )


class LinearThreshold(DiffusionModel):
    """Stateless LT model.

    Parameters
    ----------
    validate:
        If ``True`` (default), every entry point checks the LT weight
        constraint once per graph object (cached by object id).
    """

    name = "LT"

    def __init__(self, validate: bool = True):
        self._validate = validate
        self._checked_ids: set = set()
        self._cum_graph: DiGraph = None
        self._cum_probs: np.ndarray = None

    def _ensure_valid(self, graph: DiGraph) -> None:
        if not self._validate:
            return
        key = id(graph)
        if key in self._checked_ids:
            return
        check_lt_validity(graph)
        # Bound the cache so long-lived models do not pin arbitrary many ids.
        if len(self._checked_ids) > 4096:
            self._checked_ids.clear()
        self._checked_ids.add(key)

    def _cumulative_in_probs(self, graph: DiGraph, probs: np.ndarray) -> np.ndarray:
        """Memoized running sum of the in-CSR probabilities.

        ``reverse_sample_batch`` binary-searches this array once per BFS
        level; recomputing the O(m) cumsum per engine call would dominate
        small batches.  A single slot suffices: pool growth hammers one
        graph at a time, and each adaptive round brings a fresh residual
        graph that replaces the previous entry — so nothing beyond the
        current graph (identity-checked, immutable) is ever pinned.

        The running sum must accumulate in float64 even when the graph
        stores compact float32 probabilities: each addend upcasts exactly,
        so the cumulative array (and every walk derived from it) is
        bit-identical across storage policies.
        """
        if self._cum_graph is not graph:
            self._cum_graph = graph
            self._cum_probs = np.cumsum(probs, dtype=np.float64)
        return self._cum_probs

    def sample_realization(
        self, graph: DiGraph, seed: RandomSource = None
    ) -> LTRealization:
        """Each node keeps at most one incoming edge (live-edge sampling)."""
        self._ensure_valid(graph)
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

    def simulate(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        seed: RandomSource = None,
    ) -> np.ndarray:
        """Forward threshold process; avoids materializing a realization."""
        self._ensure_valid(graph)
        rng = as_generator(seed)
        indptr, targets, probs = graph.out_csr
        thresholds = rng.random(graph.n)
        accumulated = np.zeros(graph.n, dtype=np.float64)
        active = np.zeros(graph.n, dtype=bool)
        active[normalize_seeds(graph, seeds)] = True
        frontier = np.flatnonzero(active)
        while len(frontier):
            positions = gather_csr_rows(indptr, frontier)
            if len(positions) == 0:
                break
            touched = targets[positions]
            np.add.at(accumulated, touched, probs[positions])
            crossers = sorted_unique(touched)
            fresh = crossers[
                (~active[crossers]) & (accumulated[crossers] >= thresholds[crossers])
            ]
            active[fresh] = True
            frontier = fresh
        return active

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
        exactly as in the scalar :meth:`simulate`.  Thresholds are drawn
        lazily on a pair's first touch — iid uniforms, so distributionally
        identical to drawing them all up front, but the number of draws
        tracks the cascades' actual reach instead of ``n_sims * n`` (the
        threshold array itself stays ``np.empty``: allocated virtual, only
        touched pages materialize).  The flat float arrays are the memory
        price of the batch, which is what the estimator chunking
        (``mc_batch_size``) bounds.
        """
        self._ensure_valid(graph)
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

    def reverse_sample(
        self,
        graph: DiGraph,
        roots: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        """Reverse random walk: each visited node keeps <= 1 in-edge.

        Under LT the reverse-reachable structure is a union of backward
        walks, one step per visited node, which is why LT sampling is
        cheaper than IC in practice (paper Section 6.3).
        """
        self._ensure_valid(graph)
        indptr, sources, probs = graph.in_csr
        visited = out
        roots = np.asarray(roots, dtype=np.int64)
        visited[roots] = True
        collected = list(int(r) for r in roots)
        stack = list(collected)
        while stack:
            v = stack.pop()
            start, end = int(indptr[v]), int(indptr[v + 1])
            if start == end:
                continue
            x = rng.random()
            acc = 0.0
            for pos in range(start, end):
                acc += float(probs[pos])  # float64 under compact storage
                if x < acc:
                    u = int(sources[pos])
                    if not visited[u]:
                        visited[u] = True
                        collected.append(u)
                        stack.append(u)
                    break
        result = np.asarray(collected, dtype=np.int64)
        visited[result] = False  # restore the pooled scratch buffer
        return result

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
        self._ensure_valid(graph)
        indptr, sources, probs = graph.in_csr
        n = graph.n
        cum = self._cumulative_in_probs(graph, probs)

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
