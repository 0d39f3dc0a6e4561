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

Every consumer of such pre-sampled worlds — observation, CRN sweeps,
non-adaptive scoring, the exact oracle, and :meth:`Realization.spread` —
replays them through one labeled BFS, :func:`replay_worlds`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.diffusion.base import (
    expand_labeled_frontier,
    pack_start_sets,
    run_labeled_bfs,
)
from repro.errors import DiffusionError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.kernels import resolve_backend
from repro.kernels.dispatch import replay_expander


class Realization(abc.ABC):
    """A deterministic world sampled from a diffusion model."""

    def __init__(self, graph: DiGraph):
        self.graph = graph

    @abc.abstractmethod
    def is_edge_live(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` is live in this world."""

    def reachable_from(
        self,
        seeds: Sequence[int],
        allowed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask of nodes reachable from ``seeds`` over live edges.

        ``allowed`` (optional boolean mask) restricts traversal to a node
        subset: nodes outside it are neither activated nor traversed.  This
        implements observation inside a residual graph without re-indexing
        the realization.  A batch of one through
        :func:`batch_reachable_from`.
        """
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)[None, :]
        return batch_reachable_from([self], [seeds], allowed)[0]

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

    def live_edge_count(self) -> int:
        """Number of live edges, i.e. nodes that selected an in-edge."""
        return int((self.chosen_source >= 0).sum())


def _start_nodes(
    n: int, seeds: Sequence[int], allowed: Optional[np.ndarray]
) -> np.ndarray:
    """One session's validated start nodes, deduplicated and sorted.

    A plain loop: observation commits a handful of seeds per session, where
    it is cheaper than the vectorized ``normalize_seeds``.
    """
    visited = np.zeros(n, dtype=bool)
    for s in seeds:
        s = int(s)
        if not 0 <= s < n:
            raise NodeNotFoundError(s, n)
        if allowed is None or allowed[s]:
            visited[s] = True
    return np.flatnonzero(visited)


def stack_worlds(realizations: Sequence[Realization]) -> tuple[str, np.ndarray]:
    """The world kind and flat stacked noise of a one-type batch.

    ``"ic"`` stacks the live-edge flags (``len * m``), ``"lt"`` the chosen
    in-edges (``len * n``).  A batch that mixes realization types, or holds
    a type other than :class:`ICRealization` / :class:`LTRealization`,
    raises :class:`~repro.errors.DiffusionError`.
    """
    first = type(realizations[0])
    if first not in (ICRealization, LTRealization) or any(
        type(phi) is not first for phi in realizations
    ):
        raise DiffusionError(
            "replay needs a batch of only ICRealization or only LTRealization "
            f"worlds, got {sorted({type(phi).__name__ for phi in realizations})}"
        )
    if first is ICRealization:
        return "ic", np.concatenate([phi.live_edges for phi in realizations])
    return "lt", np.concatenate([phi.chosen_source for phi in realizations])


def replay_worlds(
    graph: DiGraph,
    kind: str,
    worlds: np.ndarray,
    world_of: np.ndarray,
    starts: np.ndarray,
    starts_indptr: np.ndarray,
    allowed: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
    kernel: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Replay many start sets over pre-sampled worlds in one labeled BFS.

    The one deterministic replay behind observation, CRN sweeps,
    non-adaptive scoring and the exact oracle.  Job ``j`` starts from
    ``starts[starts_indptr[j]:starts_indptr[j + 1]]`` and expands over the
    live edges of world ``world_of[j]`` of the flat stacked noise
    ``worlds`` (``kind`` ``"ic"``: live flags keyed ``world * m + edge``;
    ``"lt"``: chosen in-edges keyed ``world * n + node``, see
    :func:`stack_worlds`).  ``allowed``, when given, is the flat
    ``j * n + node`` mask of nodes job ``j`` may activate and traverse.

    ``kernel`` selects the per-level backend (see :mod:`repro.kernels`);
    replay is deterministic, so every backend returns the same packed
    ``(members, indptr)`` pair, grouped by job.
    """
    indptr, targets, _ = graph.out_csr
    n, m = graph.n, graph.m
    worlds = worlds.reshape(-1)
    world_of = np.asarray(world_of, dtype=np.int64)
    backend = resolve_backend(kernel, graph)
    if backend.kernels is not None:
        expand = replay_expander(
            backend, kind, indptr, targets, worlds, world_of, m, n, allowed
        )
        return run_labeled_bfs(
            n, starts, starts_indptr, scratch=scratch, expand=expand
        )

    def propose_ic(frontier_sids, frontier_nodes):
        positions, owners, _ = expand_labeled_frontier(
            indptr, frontier_sids, frontier_nodes
        )
        kept = worlds[world_of[owners] * m + positions]
        keys = owners[kept] * n + targets[positions[kept]]
        return keys if allowed is None else keys[allowed[keys]]

    def propose_lt(frontier_sids, frontier_nodes):
        positions, owners, degrees = expand_labeled_frontier(
            indptr, frontier_sids, frontier_nodes
        )
        heads = targets[positions]
        # Edge u -> v is live in world w exactly when v chose u in w.
        kept = worlds[world_of[owners] * n + heads] == np.repeat(
            frontier_nodes, degrees
        )
        keys = owners[kept] * n + heads[kept]
        return keys if allowed is None else keys[allowed[keys]]

    propose = propose_ic if kind == "ic" else propose_lt
    return run_labeled_bfs(n, starts, starts_indptr, propose, scratch)


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
    against one dataset graph with many sampled worlds — and of one type
    (see :func:`stack_worlds`).

    The worlds stack flat and session ``s`` replays world ``s`` through
    :func:`replay_worlds`; ``kernel`` selects its per-level backend, and
    every backend returns the same matrix.

    Returns a ``(batch, n)`` boolean activation matrix.
    """
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
    kind, worlds = stack_worlds(realizations)
    start_sets = [
        _start_nodes(n, seeds, None if allowed is None else allowed[sid])
        for sid, seeds in enumerate(seeds_per)
    ]
    members, indptr = replay_worlds(
        graph,
        kind,
        worlds,
        np.arange(batch, dtype=np.int64),  # session s replays world s
        *pack_start_sets(start_sets),
        allowed=None if allowed is None else allowed.reshape(-1),
        kernel=kernel,
    )
    visited = np.zeros(batch * n, dtype=bool)
    session_of = np.repeat(np.arange(batch, dtype=np.int64), np.diff(indptr))
    visited[session_of * n + members] = True
    return visited.reshape(batch, n)
