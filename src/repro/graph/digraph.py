"""Immutable directed probabilistic graph in compressed-sparse-row form.

The whole library runs on :class:`DiGraph`: a node set ``{0, ..., n-1}`` and
``m`` directed edges, each with a propagation probability ``p(e) in (0, 1]``.
Both adjacency directions are stored as CSR arrays because the two halves of
the system walk the graph in opposite directions:

* forward simulation of a cascade follows *outgoing* edges,
* RR / mRR sampling performs a reverse BFS over *incoming* edges.

The arrays are NumPy vectors so the BFS inner loops can expand a whole
frontier with vectorized slicing instead of per-edge Python calls — this is
what makes a pure-Python reproduction of an RR-set-based system feasible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, Optional

import numpy as np

from repro.errors import EdgeError, GraphError, NodeNotFoundError

Edge = tuple[int, int, float]

#: Graph storage policies.  ``adaptive`` downcasts CSR arrays where the
#: downcast is provably lossless (int32 index/indptr arrays when both the
#: node and edge counts fit, float32 probabilities when every value
#: round-trips exactly); ``wide`` pins the historical int64/float64 layout.
#: Every sampler and simulator consumes the arrays through NumPy operations
#: that promote exactly (compares, float64 accumulators, index gathers), so
#: the two layouts produce bit-identical results — the dtype-equivalence
#: tests pin this.
STORAGE_POLICIES = ("adaptive", "wide")

_INT32_LIMIT = np.iinfo(np.int32).max


def csr_index_dtype(n: int, m: int) -> np.dtype:
    """Narrowest safe dtype for the CSR index/indptr arrays of ``(n, m)``.

    ``indptr`` values run up to ``m`` and index values up to ``n - 1``, so
    int32 is exact whenever both counts fit; int64 otherwise.
    """
    if n + 1 <= _INT32_LIMIT and m <= _INT32_LIMIT:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def csr_prob_dtype(probabilities: np.ndarray) -> np.dtype:
    """float32 when the downcast is lossless for every value, else float64.

    Lossless means every probability survives a float32 round-trip exactly
    (powers of two like 0.5/0.25, and most hand-authored test weights do;
    weighted-cascade values like 1/3 do not) — only then can the compact
    layout be numerically indistinguishable, because float32 -> float64
    promotion is always exact.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    narrow = probabilities.astype(np.float32)
    if np.array_equal(narrow.astype(np.float64), probabilities):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


class DiGraph:
    """A directed graph with per-edge propagation probabilities.

    Instances are immutable: construct them with :class:`repro.graph.builder.
    GraphBuilder`, the generators in :mod:`repro.graph.generators`, or
    directly from edge arrays via :meth:`from_edges`.  Values derived from
    the arrays alone (the store fingerprint, LT's validity verdict and
    cumulative in-probabilities) are computed on first use and kept in a
    per-instance cache (:meth:`cached`); derived graphs start without one,
    and the cache is neither pickled nor compared.

    Attributes
    ----------
    n:
        Number of nodes; node identifiers are ``0..n-1``.
    m:
        Number of directed edges.
    """

    __slots__ = (
        "n",
        "m",
        "storage",
        "_out_indptr",
        "_out_targets",
        "_out_probs",
        "_in_indptr",
        "_in_sources",
        "_in_probs",
        "_cache",
    )

    def __init__(
        self,
        n: int,
        out_indptr: np.ndarray,
        out_targets: np.ndarray,
        out_probs: np.ndarray,
        in_indptr: np.ndarray,
        in_sources: np.ndarray,
        in_probs: np.ndarray,
        storage: str = "adaptive",
    ):
        """Low-level constructor from pre-built CSR arrays.

        Most callers should use :meth:`from_edges`; this constructor trusts
        its arguments apart from cheap shape checks.  ``storage`` records
        the policy the arrays were built under so derived graphs
        (:meth:`induced_subgraph`, :meth:`with_probabilities`) inherit it.
        """
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        if len(out_indptr) != n + 1 or len(in_indptr) != n + 1:
            raise GraphError("indptr arrays must have length n + 1")
        if len(out_targets) != len(out_probs):
            raise GraphError("out_targets and out_probs must have equal length")
        if len(in_sources) != len(in_probs):
            raise GraphError("in_sources and in_probs must have equal length")
        if len(out_targets) != len(in_sources):
            raise GraphError("forward and reverse CSR must describe the same edges")
        if storage not in STORAGE_POLICIES:
            raise GraphError(
                f"storage must be one of {STORAGE_POLICIES}, got {storage!r}"
            )
        self.n = int(n)
        self.m = int(len(out_targets))
        self.storage = storage
        self._out_indptr = out_indptr
        self._out_targets = out_targets
        self._out_probs = out_probs
        self._in_indptr = in_indptr
        self._in_sources = in_sources
        self._in_probs = in_probs
        self._cache: Optional[dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Edge], storage: str = "adaptive"
    ) -> DiGraph:
        """Build a graph from ``(source, target, probability)`` triples.

        Self-loops and out-of-range endpoints raise :class:`EdgeError`;
        parallel edges are allowed (the diffusion models treat them as
        independent activation chances), though the stock generators never
        produce them.
        """
        edge_list = list(edges)
        if edge_list:
            src = np.fromiter((e[0] for e in edge_list), dtype=np.int64)
            dst = np.fromiter((e[1] for e in edge_list), dtype=np.int64)
            prob = np.fromiter((e[2] for e in edge_list), dtype=np.float64)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
            prob = np.empty(0, dtype=np.float64)
        return cls.from_arrays(n, src, dst, prob, storage=storage)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        probabilities: np.ndarray,
        storage: str = "adaptive",
    ) -> DiGraph:
        """Build a graph from parallel NumPy edge arrays (vectorized path).

        ``storage`` selects the CSR array layout: ``"adaptive"`` (default)
        stores index/indptr arrays as int32 when ``n`` and ``m`` fit and
        probabilities as float32 when that is lossless, halving the memory
        (and shared-memory segment) footprint with bit-identical sampling
        behavior; ``"wide"`` pins the int64/float64 reference layout (the
        dtype-equivalence tests compare the two).
        """
        if storage not in STORAGE_POLICIES:
            raise GraphError(
                f"storage must be one of {STORAGE_POLICIES}, got {storage!r}"
            )
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if not (len(sources) == len(targets) == len(probabilities)):
            raise EdgeError("edge arrays must have equal length")
        if len(sources):
            if sources.min() < 0 or sources.max() >= n:
                raise EdgeError("edge source out of range")
            if targets.min() < 0 or targets.max() >= n:
                raise EdgeError("edge target out of range")
            if np.any(sources == targets):
                raise EdgeError("self-loops are not allowed")
            # Written as "all in range" so NaN (which fails every
            # comparison) is rejected too.
            if not np.all((probabilities > 0.0) & (probabilities <= 1.0)):
                raise EdgeError("edge probabilities must lie in (0, 1]")

        if storage == "adaptive":
            index_dtype = csr_index_dtype(n, len(sources))
            prob_dtype = csr_prob_dtype(probabilities)
        else:
            index_dtype = np.dtype(np.int64)
            prob_dtype = np.dtype(np.float64)
        out_indptr, out_targets, out_probs = _build_csr(
            n, sources, targets, probabilities, index_dtype, prob_dtype
        )
        in_indptr, in_sources, in_probs = _build_csr(
            n, targets, sources, probabilities, index_dtype, prob_dtype
        )
        return cls(
            n,
            out_indptr,
            out_targets,
            out_probs,
            in_indptr,
            in_sources,
            in_probs,
            storage=storage,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise NodeNotFoundError(v, self.n)

    def out_degree(self, v: int) -> int:
        """Number of outgoing edges of ``v``."""
        self._check_node(v)
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        self._check_node(v)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all nodes."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all nodes."""
        return np.diff(self._in_indptr)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of edges leaving ``v`` (a read-only CSR slice)."""
        self._check_node(v)
        return self._out_targets[self._out_indptr[v] : self._out_indptr[v + 1]]

    def out_probabilities(self, v: int) -> np.ndarray:
        """Probabilities aligned with :meth:`out_neighbors`."""
        self._check_node(v)
        return self._out_probs[self._out_indptr[v] : self._out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of edges entering ``v`` (a read-only CSR slice)."""
        self._check_node(v)
        return self._in_sources[self._in_indptr[v] : self._in_indptr[v + 1]]

    def in_probabilities(self, v: int) -> np.ndarray:
        """Probabilities aligned with :meth:`in_neighbors`."""
        self._check_node(v)
        return self._in_probs[self._in_indptr[v] : self._in_indptr[v + 1]]

    # Raw CSR access for the vectorized samplers.  These return the internal
    # arrays without copying; callers must treat them as read-only.

    @property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, targets, probabilities)`` of the forward adjacency."""
        return self._out_indptr, self._out_targets, self._out_probs

    @property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, sources, probabilities)`` of the reverse adjacency."""
        return self._in_indptr, self._in_sources, self._in_probs

    # ------------------------------------------------------------------
    # Storage introspection
    # ------------------------------------------------------------------

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of the CSR index/indptr arrays (int32 when compact)."""
        return self._out_targets.dtype

    @property
    def prob_dtype(self) -> np.dtype:
        """Dtype of the probability arrays (float32 when lossless)."""
        return self._out_probs.dtype

    @property
    def csr_nbytes(self) -> int:
        """Total bytes of the six CSR arrays (the shared-memory payload)."""
        return int(
            self._out_indptr.nbytes
            + self._out_targets.nbytes
            + self._out_probs.nbytes
            + self._in_indptr.nbytes
            + self._in_sources.nbytes
            + self._in_probs.nbytes
        )

    def with_storage(self, storage: str) -> DiGraph:
        """Rebuild this graph under another storage policy.

        ``"wide"`` upcasts every CSR array to int64/float64; ``"adaptive"``
        re-applies the lossless downcasts.  Topology, edge order, and (by
        losslessness) every probability value are preserved exactly, so the
        two layouts sample bit-identically.
        """
        if storage not in STORAGE_POLICIES:
            raise GraphError(
                f"storage must be one of {STORAGE_POLICIES}, got {storage!r}"
            )
        if storage == "adaptive":
            index_dtype = csr_index_dtype(self.n, self.m)
            prob_dtype = csr_prob_dtype(self._out_probs)
        else:
            index_dtype = np.dtype(np.int64)
            prob_dtype = np.dtype(np.float64)
        return DiGraph(
            self.n,
            self._out_indptr.astype(index_dtype),
            self._out_targets.astype(index_dtype),
            self._out_probs.astype(prob_dtype),
            self._in_indptr.astype(index_dtype),
            self._in_sources.astype(index_dtype),
            self._in_probs.astype(prob_dtype),
            storage=storage,
        )

    # ------------------------------------------------------------------
    # Edge iteration / export
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(source, target, probability)`` triples."""
        for u in range(self.n):
            start, end = self._out_indptr[u], self._out_indptr[u + 1]
            for idx in range(start, end):
                yield u, int(self._out_targets[idx]), float(self._out_probs[idx])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Export edges as ``(sources, targets, probabilities)`` arrays.

        Edges come out grouped by source in ascending order, which is the
        canonical ordering used by :meth:`__eq__` and the IO round-trip.
        Always int64/float64 regardless of the internal storage policy
        (the export is a copy anyway, and float32 -> float64 is exact).
        """
        sources = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())
        return (
            sources,
            self._out_targets.astype(np.int64),
            self._out_probs.astype(np.float64),
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Whether at least one directed edge ``u -> v`` exists."""
        self._check_node(v)
        return bool(np.any(self.out_neighbors(u) == v))

    def edge_probability(self, u: int, v: int) -> float:
        """Probability of edge ``u -> v``; raises if absent.

        With parallel edges, returns the probability of the first stored one.
        """
        self._check_node(v)
        neighbors = self.out_neighbors(u)
        matches = np.flatnonzero(neighbors == v)
        if len(matches) == 0:
            raise EdgeError(f"edge {u} -> {v} does not exist")
        return float(self.out_probabilities(u)[matches[0]])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def reverse(self) -> DiGraph:
        """Return the graph with every edge direction flipped."""
        return DiGraph(
            self.n,
            self._in_indptr,
            self._in_sources,
            self._in_probs,
            self._out_indptr,
            self._out_targets,
            self._out_probs,
            storage=self.storage,
        )

    def with_probabilities(self, probabilities_by_edge) -> DiGraph:
        """Return a copy whose probabilities are recomputed per edge.

        ``probabilities_by_edge`` is a callable ``(u, v) -> p`` evaluated for
        every edge; used by the weighting schemes.
        """
        src, dst, _ = self.edge_arrays()
        probs = np.fromiter(
            (probabilities_by_edge(int(u), int(v)) for u, v in zip(src, dst)),
            dtype=np.float64,
            count=len(src),
        )
        return DiGraph.from_arrays(self.n, src, dst, probs, storage=self.storage)

    def relabeled(
        self, order: Optional[np.ndarray] = None
    ) -> tuple["DiGraph", np.ndarray]:
        """Renumber the nodes along a permutation; same graph, new ids.

        ``order[new_id] = old_id`` — the node that becomes id ``0`` is
        ``order[0]``.  With ``order=None`` the degree-descending
        permutation from :func:`repro.graph.analysis.degree_order` is
        used, which packs the high-degree hubs into a small id prefix so
        the sampling kernels' frontier/visited arrays touch a compact
        region of memory.  Returns ``(relabeled_graph, order)``; recover
        original ids from any result computed on the relabeled graph with
        ``order[new_ids]``.

        The relabeled graph is isomorphic by construction: every edge
        ``u -> v`` with probability ``p`` becomes
        ``inverse[u] -> inverse[v]`` with the same ``p``, and the storage
        policy is inherited.  Sampling streams are *not* preserved (RR
        sets depend on node ids), so relabeling is a preprocessing step —
        fix the order before seeding, not mid-run.
        """
        if order is None:
            from repro.graph.analysis import degree_order

            order = degree_order(self)
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (self.n,):
            raise GraphError(
                f"order must have shape ({self.n},), got {order.shape}"
            )
        if not np.array_equal(np.sort(order), np.arange(self.n, dtype=np.int64)):
            raise GraphError("order must be a permutation of 0..n-1")
        inverse = np.argsort(order)  # inverse[old_id] = new_id
        src, dst, probs = self.edge_arrays()
        relabeled = DiGraph.from_arrays(
            self.n, inverse[src], inverse[dst], probs, storage=self.storage
        )
        return relabeled, order

    def induced_subgraph(self, keep: np.ndarray) -> tuple["DiGraph", np.ndarray]:
        """Induce the subgraph on the nodes flagged in boolean mask ``keep``.

        Returns ``(subgraph, kept_node_ids)``: the subgraph renumbers the
        surviving nodes ``0..n'-1`` in ascending original order, and
        ``kept_node_ids[i]`` maps new id ``i`` back to the original id.  This
        is the primitive behind the residual graphs ``G_i`` of the paper.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n,):
            raise GraphError(f"mask must have shape ({self.n},), got {keep.shape}")
        kept_ids = np.flatnonzero(keep)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[kept_ids] = np.arange(len(kept_ids), dtype=np.int64)

        src, dst, probs = self.edge_arrays()
        mask = keep[src] & keep[dst]
        # Derived graphs inherit the storage policy, so a "wide" reference
        # graph keeps the int64/float64 layout through every residual round.
        sub = DiGraph.from_arrays(
            len(kept_ids),
            new_id[src[mask]],
            new_id[dst[mask]],
            probs[mask],
            storage=self.storage,
        )
        return sub, kept_ids

    # ------------------------------------------------------------------
    # Derived-value cache
    # ------------------------------------------------------------------

    def cached(self, key: str, compute: Callable[[DiGraph], Any]) -> Any:
        """``compute(self)``, evaluated once per graph and kept under ``key``.

        Safe because the graph is immutable: a derived value can never go
        stale.  Keying on the instance (not on ``id(graph)``) means a value
        lives and dies with its graph.  Two threads racing on a cold key
        both compute the same deterministic value; either result may stay.
        """
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "_cache"
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._cache = None

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        return (
            np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_targets, other._out_targets)
            and np.allclose(self._out_probs, other._out_probs)
        )

    def __hash__(self) -> int:  # graphs are content-addressed rarely; cheap hash
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"


def _build_csr(
    n: int,
    group_by: np.ndarray,
    values: np.ndarray,
    probs: np.ndarray,
    index_dtype: Optional[np.dtype] = None,
    prob_dtype: Optional[np.dtype] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``(values, probs)`` by ``group_by`` into CSR arrays.

    Within each group the stored order follows a stable sort of ``group_by``,
    i.e. original insertion order, which keeps round-trips deterministic.
    The output arrays are cast to the requested storage dtypes (callers
    guarantee the cast is lossless; see :func:`csr_index_dtype` /
    :func:`csr_prob_dtype`).
    """
    if index_dtype is None:
        index_dtype = np.dtype(np.int64)
    if prob_dtype is None:
        prob_dtype = np.dtype(np.float64)
    counts = np.bincount(group_by, minlength=n) if len(group_by) else np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(group_by, kind="stable")
    return (
        indptr.astype(index_dtype),
        values[order].astype(index_dtype),
        probs[order].astype(prob_dtype),
    )


def gather_csr_rows(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions of all CSR entries belonging to the rows in ``nodes``.

    Given a CSR ``indptr`` and an array of row ids, returns an int64 array of
    positions such that ``values[positions]`` concatenates the row slices in
    order.  This is the frontier-expansion primitive shared by forward
    simulation and reverse (m)RR sampling: it replaces a Python loop over
    frontier nodes with three vectorized NumPy operations.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    starts = indptr[nodes]
    sizes = indptr[nodes + 1] - starts
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cumulative_before = np.cumsum(sizes) - sizes
    return np.repeat(starts - cumulative_before, sizes) + np.arange(total, dtype=np.int64)


def nodes_reachable_from(
    graph: DiGraph, sources: Sequence[int]
) -> np.ndarray:
    """Boolean mask of nodes reachable from ``sources`` following all edges.

    This ignores probabilities (treats every edge as present); the diffusion
    package provides the probabilistic counterparts.  Exposed here because
    analysis code (LWCC, feasibility checks) needs plain reachability.
    """
    indptr, targets, _ = graph.out_csr
    visited = np.zeros(graph.n, dtype=bool)
    frontier: list[int] = []
    for s in sources:
        if not 0 <= s < graph.n:
            raise NodeNotFoundError(s, graph.n)
        if not visited[s]:
            visited[s] = True
            frontier.append(s)
    while frontier:
        next_frontier: list[int] = []
        for v in frontier:
            neighbors = targets[indptr[v] : indptr[v + 1]]
            fresh = neighbors[~visited[neighbors]]
            if len(fresh):
                visited[fresh] = True
                next_frontier.extend(int(x) for x in fresh)
        frontier = next_frontier
    return visited
