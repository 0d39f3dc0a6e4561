"""Live-edge realizations.

A *realization* ``phi`` fixes the outcome of every random choice in the
diffusion process (paper Section 2.1): under IC every edge is independently
live or blocked; under LT every node selects at most one live incoming edge.
Given a realization, influence propagation is deterministic — the spread of
a seed set is the set of nodes reachable from it over live edges.

The adaptive machinery leans on this: the experiment harness samples a
handful of ground-truth realizations per dataset (the paper uses 20) and the
:class:`~repro.core.session.AdaptiveSession` reveals each one incrementally
as the policy commits seeds.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.errors import DiffusionError, NodeNotFoundError
from repro.graph.digraph import DiGraph, gather_csr_rows
from repro.utils.arrays import sorted_unique


class Realization(abc.ABC):
    """A deterministic world sampled from a diffusion model."""

    def __init__(self, graph: DiGraph):
        self.graph = graph

    @abc.abstractmethod
    def is_edge_live(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` is live in this world."""

    @abc.abstractmethod
    def reachable_from(
        self,
        seeds: Sequence[int],
        allowed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask of nodes reachable from ``seeds`` over live edges.

        ``allowed`` (optional boolean mask) restricts traversal to a node
        subset: nodes outside it are neither activated nor traversed.  This
        implements observation inside a residual graph without re-indexing
        the realization.
        """

    def spread(self, seeds: Sequence[int], allowed: Optional[np.ndarray] = None) -> int:
        """``I_phi(S)``: the number of nodes activated by ``seeds``."""
        return int(self.reachable_from(seeds, allowed).sum())

    def truncated_spread(
        self,
        seeds: Sequence[int],
        eta: int,
        allowed: Optional[np.ndarray] = None,
    ) -> int:
        """``Gamma_phi(S) = min{I_phi(S), eta}`` (paper Definition 2.2)."""
        return min(self.spread(seeds, allowed), eta)

    def _start_mask(self, seeds: Sequence[int], allowed: Optional[np.ndarray]) -> np.ndarray:
        """Shared seed validation: returns the initial visited mask."""
        visited = np.zeros(self.graph.n, dtype=bool)
        for s in seeds:
            s = int(s)
            if not 0 <= s < self.graph.n:
                raise NodeNotFoundError(s, self.graph.n)
            if allowed is None or allowed[s]:
                visited[s] = True
        return visited


class ICRealization(Realization):
    """IC world: a boolean live flag per edge, aligned with the out-CSR."""

    def __init__(self, graph: DiGraph, live_edges: np.ndarray):
        super().__init__(graph)
        live_edges = np.asarray(live_edges, dtype=bool)
        if live_edges.shape != (graph.m,):
            raise ValueError(
                f"live_edges must have shape ({graph.m},), got {live_edges.shape}"
            )
        self.live_edges = live_edges

    def is_edge_live(self, u: int, v: int) -> bool:
        indptr, targets, _ = self.graph.out_csr
        start, end = int(indptr[u]), int(indptr[u + 1])
        for pos in range(start, end):
            if targets[pos] == v:
                if self.live_edges[pos]:
                    return True
        return False

    def reachable_from(
        self,
        seeds: Sequence[int],
        allowed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        visited = self._start_mask(seeds, allowed)
        indptr, targets, _ = self.graph.out_csr
        frontier = np.flatnonzero(visited)
        while len(frontier):
            positions = gather_csr_rows(indptr, frontier)
            positions = positions[self.live_edges[positions]]
            candidates = targets[positions]
            if allowed is not None:
                candidates = candidates[allowed[candidates]]
            fresh = sorted_unique(candidates[~visited[candidates]])
            visited[fresh] = True
            frontier = fresh
        return visited

    def live_edge_count(self) -> int:
        """Number of live edges (testing/diagnostics)."""
        return int(self.live_edges.sum())


class LTRealization(Realization):
    """LT world: each node's single chosen live in-edge (or none).

    ``chosen_source[v]`` is the selected in-neighbor of ``v``, or ``-1`` when
    ``v`` selected no incoming edge.  This is the classic live-edge
    equivalence of the linear threshold model (Kempe et al. 2003).
    """

    def __init__(self, graph: DiGraph, chosen_source: np.ndarray):
        super().__init__(graph)
        chosen_source = np.asarray(chosen_source, dtype=np.int64)
        if chosen_source.shape != (graph.n,):
            raise ValueError(
                f"chosen_source must have shape ({graph.n},), got {chosen_source.shape}"
            )
        self.chosen_source = chosen_source

    def is_edge_live(self, u: int, v: int) -> bool:
        return bool(self.chosen_source[v] == u)

    def reachable_from(
        self,
        seeds: Sequence[int],
        allowed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        visited = self._start_mask(seeds, allowed)
        indptr, targets, _ = self.graph.out_csr
        frontier = np.flatnonzero(visited)
        while len(frontier):
            positions = gather_csr_rows(indptr, frontier)
            sources = np.repeat(
                frontier, indptr[frontier + 1] - indptr[frontier]
            )
            candidates = targets[positions]
            # Edge u -> v is live exactly when v chose u.
            live = self.chosen_source[candidates] == sources
            candidates = candidates[live]
            if allowed is not None:
                candidates = candidates[allowed[candidates]]
            fresh = sorted_unique(candidates[~visited[candidates]])
            visited[fresh] = True
            frontier = fresh
        return visited

    def live_edge_count(self) -> int:
        """Number of live edges, i.e. nodes that selected an in-edge."""
        return int((self.chosen_source >= 0).sum())


def batch_reachable_from(
    realizations: Sequence[Realization],
    seeds_per: Sequence[Sequence[int]],
    allowed: Optional[np.ndarray] = None,
    kernel: str = "auto",
) -> np.ndarray:
    """Reachability of many (realization, seed set) pairs in one sweep.

    The observation half of the batched adaptive engine: session ``s``
    activates the nodes reachable from ``seeds_per[s]`` over the live edges
    of ``realizations[s]``, restricted to ``allowed[s]`` (a ``(batch, n)``
    boolean mask; ``None`` allows every node).  All realizations must be
    worlds of the *same* graph object — the harness scores every policy
    against one dataset graph with many sampled worlds.

    Homogeneous IC or LT batches run as one multi-session labeled forward
    BFS on the shared :func:`~repro.diffusion.base.run_labeled_bfs` driver,
    with per-session live-edge flags (IC) or chosen in-edges (LT) stacked
    flat and keyed ``session_id * m + edge`` / ``session_id * n + node``.
    Mixed or unknown realization types fall back to one
    :meth:`Realization.reachable_from` call per session, which the batch
    path must match bit for bit (observation is deterministic given the
    realization).  ``kernel`` selects the per-level backend for the
    homogeneous sweeps (see :mod:`repro.kernels`); replay is deterministic
    given the realizations, so every backend returns the same matrix.

    Returns a ``(batch, n)`` boolean activation matrix.
    """
    from repro.diffusion.base import expand_labeled_frontier, run_labeled_bfs
    from repro.kernels import resolve_backend
    from repro.kernels.dispatch import replay_expander

    if len(realizations) == 0:
        raise DiffusionError("batch_reachable_from needs at least one realization")
    if len(realizations) != len(seeds_per):
        raise DiffusionError(
            f"got {len(realizations)} realizations but {len(seeds_per)} seed sets"
        )
    graph = realizations[0].graph
    for phi in realizations[1:]:
        if phi.graph is not graph:
            raise DiffusionError(
                "all realizations in a batch must share one graph object"
            )
    batch, n = len(realizations), graph.n
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (batch, n):
            raise DiffusionError(
                f"allowed must have shape ({batch}, {n}), got {allowed.shape}"
            )

    same_type = all(type(phi) is type(realizations[0]) for phi in realizations)
    homogeneous_ic = same_type and isinstance(realizations[0], ICRealization)
    homogeneous_lt = same_type and isinstance(realizations[0], LTRealization)
    if not (homogeneous_ic or homogeneous_lt):
        rows = [
            phi.reachable_from(
                seeds, None if allowed is None else allowed[sid]
            )
            for sid, (phi, seeds) in enumerate(zip(realizations, seeds_per))
        ]
        return np.stack(rows)

    # Start sets: per-session seed validation identical to _start_mask.
    start_lists: list[np.ndarray] = []
    for sid, seeds in enumerate(seeds_per):
        mask = realizations[sid]._start_mask(
            seeds, None if allowed is None else allowed[sid]
        )
        start_lists.append(np.flatnonzero(mask))
    starts = (
        np.concatenate(start_lists) if start_lists else np.empty(0, dtype=np.int64)
    )
    starts_indptr = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum([len(s) for s in start_lists], out=starts_indptr[1:])

    out_indptr, targets, _ = graph.out_csr
    allowed_flat = None if allowed is None else allowed.reshape(-1)

    backend = resolve_backend(kernel, graph)
    if backend.kernels is not None:
        kind = "ic" if homogeneous_ic else "lt"
        worlds_flat = np.concatenate(
            [
                phi.live_edges if homogeneous_ic else phi.chosen_source
                for phi in realizations
            ]
        )
        expand = replay_expander(
            backend,
            kind,
            out_indptr,
            targets,
            worlds_flat,
            np.arange(batch, dtype=np.int64),  # session s replays world s
            graph.m,
            n,
            allowed_flat,
        )
        members, indptr = run_labeled_bfs(
            n, starts, starts_indptr, expand=expand
        )
        visited = np.zeros(batch * n, dtype=bool)
        session_of = np.repeat(
            np.arange(batch, dtype=np.int64), np.diff(indptr)
        )
        visited[session_of * n + members] = True
        return visited.reshape(batch, n)

    if homogeneous_ic:
        m = graph.m
        live_flat = np.concatenate([phi.live_edges for phi in realizations])

        def propose(frontier_sids, frontier_nodes):
            positions, owners, _ = expand_labeled_frontier(
                out_indptr, frontier_sids, frontier_nodes
            )
            keep = live_flat[owners * m + positions]
            candidates = targets[positions[keep]]
            owners = owners[keep]
            if allowed_flat is not None:
                ok = allowed_flat[owners * n + candidates]
                candidates, owners = candidates[ok], owners[ok]
            return owners * n + candidates

    else:
        chosen_flat = np.concatenate(
            [phi.chosen_source for phi in realizations]
        )

        def propose(frontier_sids, frontier_nodes):
            positions, owners, degrees = expand_labeled_frontier(
                out_indptr, frontier_sids, frontier_nodes
            )
            sources = np.repeat(frontier_nodes, degrees)
            candidates = targets[positions]
            # Edge u -> v is live in session s exactly when v chose u there.
            keep = chosen_flat[owners * n + candidates] == sources
            candidates, owners = candidates[keep], owners[keep]
            if allowed_flat is not None:
                ok = allowed_flat[owners * n + candidates]
                candidates, owners = candidates[ok], owners[ok]
            return owners * n + candidates

    members, indptr = run_labeled_bfs(n, starts, starts_indptr, propose)
    visited = np.zeros(batch * n, dtype=bool)
    session_of = np.repeat(np.arange(batch, dtype=np.int64), np.diff(indptr))
    visited[session_of * n + members] = True
    return visited.reshape(batch, n)
