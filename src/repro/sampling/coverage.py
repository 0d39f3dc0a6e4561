"""Coverage bookkeeping over a pool of (m)RR sets.

Both TRIM's single-node selection (``argmax_v Lambda_R(v)``) and TRIM-B's
greedy maximum coverage operate on the same structure: a pool of node sets
plus a per-node count of how many sets each node appears in.

:class:`CoverageIndex` stores the pool as **packed CSR arrays** — one flat
``members`` vector and an ``indptr`` of set boundaries — so whole batches of
sets arriving from the :class:`~repro.sampling.engine.BatchSampler` are
absorbed with a handful of vectorized NumPy operations (:meth:`add_batch`),
coverage queries reduce over the flat vector, and the greedy
maximum-coverage routine with its ``1 - (1 - 1/b)^b`` guarantee (Vazirani
2003; the ``Greedy(R)`` of the paper's Algorithm 3) updates marginal gains
one *set batch* at a time instead of one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, SamplingError
from repro.graph.digraph import csr_index_dtype, gather_csr_rows

_INITIAL_MEMBER_CAPACITY = 1024
_INITIAL_SET_CAPACITY = 256


@dataclass(frozen=True)
class GreedyCoverResult:
    """Outcome of greedy maximum coverage."""

    nodes: list[int]
    covered: int          # number of sets covered by `nodes`
    marginal_gains: list[int]  # sets newly covered by each pick, in order


class _SetsView:
    """Read-only sequence view over the CSR-packed sets.

    Each item is a NumPy slice of the flat members array — no copies, but
    callers must treat the slices as read-only.
    """

    __slots__ = ("_index",)

    def __init__(self, index: CoverageIndex):
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, set_id):
        if isinstance(set_id, slice):
            return [self[i] for i in range(*set_id.indices(len(self)))]
        if set_id < 0:
            set_id += len(self._index)
        if not 0 <= set_id < len(self._index):
            raise IndexError(set_id)
        indptr = self._index._indptr
        return self._index._members[indptr[set_id] : indptr[set_id + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        for set_id in range(len(self._index)):
            yield self[set_id]


class CoverageIndex:
    """A growable CSR-packed pool of node sets with per-node coverage counts."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"need n >= 1, got {n}")
        self.n = int(n)
        # Members are node ids < n, so the packed pool stores them at the
        # graph's adaptive index width (int32 in practice) — pools are the
        # dominant memory consumer of a TRIM round, and halving the flat
        # members vector halves it.  The indptr tracks cumulative pool
        # size, which can exceed int32 on huge pools, so it stays int64.
        self._member_dtype = csr_index_dtype(self.n, 0)
        self._members = np.empty(_INITIAL_MEMBER_CAPACITY, dtype=self._member_dtype)
        self._indptr = np.zeros(_INITIAL_SET_CAPACITY + 1, dtype=np.int64)
        self._num_sets = 0
        self._counts = np.zeros(n, dtype=np.int64)

    @classmethod
    def from_packed(
        cls,
        n: int,
        members: np.ndarray,
        indptr: np.ndarray,
        num_sets: int,
        counts: np.ndarray,
    ) -> CoverageIndex:
        """Install packed arrays that already satisfy the invariants.

        No copy and no validation: ``members`` (at this index's member
        dtype) and ``indptr`` may run past the ``num_sets`` sets they hold,
        and that headroom absorbs later appends.  ``counts`` must equal
        ``bincount(members[:indptr[num_sets]], minlength=n)``.  The
        adaptive engine's pool carry-over builds all of these in
        :meth:`~repro.sampling.mrr.CarriedMRRPool.revalidate`.
        """
        index = cls(n)
        if members.dtype != index._member_dtype or len(counts) != index.n:
            raise SamplingError("packed arrays do not fit this index")
        index._members = members
        index._indptr = indptr
        index._num_sets = int(num_sets)
        index._counts = counts
        return index

    # ------------------------------------------------------------------
    # Pool growth
    # ------------------------------------------------------------------

    def add(self, members: np.ndarray) -> None:
        """Add one set (an array of distinct node ids)."""
        members = np.asarray(members, dtype=np.int64)
        self.add_batch(
            members, np.asarray([0, len(members)], dtype=np.int64)
        )

    def add_batch(self, members: np.ndarray, indptr: np.ndarray) -> None:
        """Bulk-append a CSR batch of sets.

        ``members`` concatenates the new sets' node ids; ``indptr`` (length
        ``batch + 1``, starting at 0) delimits them.  Equivalent to calling
        :meth:`add` once per set, but the packed copy and the coverage-count
        update are single vectorized operations regardless of batch size.
        """
        # Keep the incoming integer dtype: parallel sample chunks already
        # arrive at the compact member width, and forcing int64 here would
        # add a transient 2x copy per chunk on the pool-growth hot path.
        # Validation below promotes to int64 where the arithmetic needs it;
        # the packed-store assignment downcasts values already checked < n.
        members = np.asarray(members)
        if members.dtype.kind != "i":
            members = members.astype(np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        if len(indptr) < 2 or indptr[0] != 0 or indptr[-1] != len(members):
            raise SamplingError(
                "indptr must start at 0 and end at len(members)"
            )
        sizes = np.diff(indptr)
        if (sizes <= 0).any():
            # An empty reverse sample cannot happen (roots are members),
            # but guard anyway: an empty set covers nothing and breaks
            # argmax invariants silently.
            raise SamplingError("cannot add an empty set to the coverage index")
        if len(members) and (members.min() < 0 or members.max() >= self.n):
            raise SamplingError("set contains node ids outside the graph")
        # A node repeated inside one set would inflate its coverage count
        # relative to coverage_of_set; reject rather than corrupt silently.
        # Keying members by their set id makes the duplicate check one sort.
        set_of_member = np.repeat(
            np.arange(len(sizes), dtype=np.int64), sizes
        )
        keyed = np.sort(set_of_member * self.n + members)
        if len(keyed) > 1 and (keyed[1:] == keyed[:-1]).any():
            raise SamplingError("a set contains duplicate node ids")

        batch = len(indptr) - 1
        used = self._indptr[self._num_sets]
        self._members = _ensure_capacity(self._members, used + len(members))
        self._indptr = _ensure_capacity(self._indptr, self._num_sets + batch + 1)
        self._members[used : used + len(members)] = members
        self._indptr[self._num_sets + 1 : self._num_sets + batch + 1] = (
            used + indptr[1:]
        )
        self._num_sets += batch
        if len(members) * 8 < self.n:
            # Small update (e.g. the single-set reference path): touch only
            # the members instead of paying an O(n) bincount per call.
            np.add.at(self._counts, members, 1)
        else:
            self._counts += np.bincount(members, minlength=self.n)

    def __len__(self) -> int:
        """Number of sets in the pool (``|R|`` in the paper)."""
        return self._num_sets

    @property
    def sets(self) -> Sequence[np.ndarray]:
        """Read-only view of the stored sets (CSR slices, no copies)."""
        return _SetsView(self)

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(members, indptr)`` CSR arrays (read-only views)."""
        used = self._indptr[self._num_sets]
        return self._members[:used], self._indptr[: self._num_sets + 1]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(members, indptr, counts)`` of the pool, handed off uncopied.

        Appends only write past the returned ``members``/``indptr`` views,
        so those stay valid; the counts are updated in place, so the index
        keeps a private O(n) copy of them from here on.
        """
        members, indptr = self.packed()
        counts = self._counts
        self._counts = counts.copy()
        return members, indptr, counts

    def total_size(self) -> int:
        """Sum of set sizes; proportional to greedy-cover cost."""
        return int(self._indptr[self._num_sets])

    # ------------------------------------------------------------------
    # Single-node coverage (TRIM)
    # ------------------------------------------------------------------

    def coverage_of(self, node: int) -> int:
        """``Lambda_R(v)``: number of sets containing ``node``."""
        if not 0 <= node < self.n:
            raise SamplingError(f"node {node} out of range for n={self.n}")
        return int(self._counts[node])

    def coverage_counts(self) -> np.ndarray:
        """A copy of the full per-node coverage vector."""
        return self._counts.copy()

    def argmax_node(self) -> tuple[int, int]:
        """The node maximizing ``Lambda_R(v)`` and its coverage.

        Ties break toward the smallest node id (NumPy argmax convention),
        which keeps runs reproducible.
        """
        if self._num_sets == 0:
            raise SamplingError("coverage index is empty; generate sets first")
        v = int(self._counts.argmax())
        return v, int(self._counts[v])

    def coverage_of_set(self, nodes: Sequence[int]) -> int:
        """``Lambda_R(S)``: number of sets hit by *any* node in ``S``."""
        node_mask = np.zeros(self.n, dtype=bool)
        for v in nodes:
            if not 0 <= v < self.n:
                raise SamplingError(f"node {v} out of range for n={self.n}")
            node_mask[v] = True
        if self._num_sets == 0 or not node_mask.any():
            return 0
        members, indptr = self.packed()
        hits = node_mask[members]
        # Sets are never empty, so indptr is strictly increasing and the
        # segment reduction is well defined.
        return int(np.logical_or.reduceat(hits, indptr[:-1]).sum())

    # ------------------------------------------------------------------
    # Greedy maximum coverage (TRIM-B / ATEUC)
    # ------------------------------------------------------------------

    def greedy_max_coverage(
        self, budget: int, stop_at_coverage: int = None, lazy: bool = True
    ) -> GreedyCoverResult:
        """Pick up to ``budget`` nodes greedily maximizing covered-set count.

        Classic greedy: repeatedly take the node covering the most
        still-uncovered sets.  Guarantees coverage at least
        ``(1 - (1 - 1/budget)^budget) * OPT_budget`` (paper Line 8 of
        Algorithm 3 and Section 4.1).

        When fewer than ``budget`` nodes have positive marginal gain, the
        remaining picks are arbitrary unused nodes with zero gain — TRIM-B
        requires a size-``b`` batch regardless.

        ``stop_at_coverage`` ends the sweep as soon as that many sets are
        covered (seed-minimization callers such as ATEUC use this: they want
        the shortest prefix reaching a coverage target, not a fixed-size
        batch).

        Two exactly equivalent execution strategies:

        * ``lazy=True`` (default) — a CELF-style priority queue over stale
          gains.  Marginal gains are monotone non-increasing as coverage
          grows, so a popped entry whose recomputed gain still tops the
          queue is the true argmax; only popped nodes ever pay a
          recomputation (one slice of the inverted index), and no pick
          scans all ``n`` gains or touches the covered sets' members.
        * ``lazy=False`` — the eager reference: per pick, a full
          ``gains.argmax()`` scan plus one ``bincount`` gain decrement
          over the members of every newly covered set.

        Both resolve gain ties toward the smallest node id (the documented
        argmax convention — the heap orders equal gains by node id), so
        they return identical picks in identical order; the regression
        test pins this equivalence.
        """
        if budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {budget}")
        if budget > self.n:
            raise ConfigurationError(
                f"budget {budget} exceeds node count {self.n}"
            )
        if lazy:
            return self._greedy_lazy(budget, stop_at_coverage)
        return self._greedy_eager(budget, stop_at_coverage)

    def _greedy_eager(
        self, budget: int, stop_at_coverage: int = None
    ) -> GreedyCoverResult:
        members, set_indptr = self.packed()
        gains = self._counts.copy()
        covered = np.zeros(self._num_sets, dtype=bool)
        node_indptr, node_sets = self._inverted_index()

        selected: list[int] = []
        marginal: list[int] = []
        covered_total = 0
        for _ in range(budget):
            if stop_at_coverage is not None and covered_total >= stop_at_coverage:
                break
            v = int(gains.argmax())
            gain = int(gains[v])
            if gain < 0:  # every node already selected (tiny graphs)
                break
            selected.append(v)
            marginal.append(max(gain, 0))
            if gain > 0:
                candidate_sids = node_sets[node_indptr[v] : node_indptr[v + 1]]
                fresh = candidate_sids[~covered[candidate_sids]]
                covered[fresh] = True
                covered_total += len(fresh)
                touched = members[gather_csr_rows(set_indptr, fresh)]
                gains -= np.bincount(touched, minlength=self.n)
            gains[v] = -1  # never reselect
        return GreedyCoverResult(selected, covered_total, marginal)

    def _greedy_lazy(
        self, budget: int, stop_at_coverage: int = None
    ) -> GreedyCoverResult:
        import heapq

        covered = np.zeros(self._num_sets, dtype=bool)
        node_indptr, node_sets = self._inverted_index()

        # Min-heap on (-gain, node): highest gain first, smallest node id
        # on ties — the same order the eager path's argmax resolves to.
        # Seeding from the maintained coverage counts costs one O(n) pass
        # total, not one per pick.
        heap = [(-int(g), v) for v, g in enumerate(self._counts)]
        heapq.heapify(heap)

        selected: list[int] = []
        marginal: list[int] = []
        covered_total = 0
        while len(selected) < budget and heap:
            if stop_at_coverage is not None and covered_total >= stop_at_coverage:
                break
            stale_gain, v = heapq.heappop(heap)
            sids = node_sets[node_indptr[v] : node_indptr[v + 1]]
            fresh = sids[~covered[sids]]
            gain = len(fresh)
            if gain != -stale_gain:
                # Stale bound (coverage grew since this entry was pushed):
                # re-queue with the current gain.  Submodularity guarantees
                # gain <= -stale_gain, so an up-to-date top entry is the
                # true argmax and can be committed immediately.
                heapq.heappush(heap, (-gain, v))
                continue
            selected.append(v)
            marginal.append(gain)
            if gain > 0:
                covered[fresh] = True
                covered_total += gain
        return GreedyCoverResult(selected, covered_total, marginal)

    def _inverted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style node -> set-id index built on demand."""
        if self._num_sets == 0:
            return np.zeros(self.n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        members, indptr = self.packed()
        sizes = np.diff(indptr)
        set_ids = np.repeat(np.arange(self._num_sets, dtype=np.int64), sizes)
        order = np.argsort(members, kind="stable")
        counts = np.bincount(members, minlength=self.n)
        node_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=node_indptr[1:])
        return node_indptr, set_ids[order]


def _ensure_capacity(array: np.ndarray, needed: int) -> np.ndarray:
    """Amortized-doubling growth for the packed append buffers."""
    if len(array) >= needed:
        return array
    capacity = max(len(array) * 2, needed)
    grown = np.empty(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


