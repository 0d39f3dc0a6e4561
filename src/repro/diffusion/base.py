"""The diffusion-model interface.

A :class:`DiffusionModel` encapsulates everything the rest of the library
needs to know about a propagation process:

* forward: sample the cascades a seed set activates
  (:meth:`DiffusionModel.simulate_batch`), or sample a whole live-edge
  :class:`~repro.diffusion.realization.Realization` up front
  (:meth:`DiffusionModel.sample_realization`) so the same world can be
  replayed deterministically — the adaptive session depends on this;
* reverse: a batch of stochastic reverse BFS runs from root sets
  (:meth:`DiffusionModel.reverse_sample_batch`), the primitive underlying
  both single-root RR sets and the paper's multi-root mRR sets.

Both batched directions run on the same :func:`run_labeled_bfs` driver: the
frontiers of all samples advance in lockstep over one flat visitation
bitset, and only the per-level edge-selection rule (a closure over the
forward or reverse CSR) differs between models and directions.

The two concrete models are :class:`~repro.diffusion.ic.IndependentCascade`
and :class:`~repro.diffusion.lt.LinearThreshold`; the paper's algorithms are
model-agnostic given these primitives (Section 2: "our algorithms can be
easily extended to other propagation models").  One-sample-at-a-time
oracles for these primitives are in :mod:`repro.testing.reference`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph, gather_csr_rows
from repro.utils.arrays import sorted_unique
from repro.utils.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.diffusion.realization import Realization


def normalize_seeds(graph: DiGraph, seeds: Sequence[int]) -> np.ndarray:
    """Validate and deduplicate a seed sequence into a sorted int64 array.

    Every forward entry point (``simulate_batch``, the Monte-Carlo
    estimators, the CRN evaluator) funnels seed ids through this
    helper so that out-of-range ids raise
    :class:`~repro.errors.NodeNotFoundError` identically across IC, LT, and
    the topic-aware model.  Duplicate ids are silently deduplicated: seeding
    a node twice is indistinguishable from seeding it once under every model
    in this library (activation is idempotent).
    """
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    if len(seeds):
        if seeds.min() < 0 or seeds.max() >= graph.n:
            offender = seeds[(seeds < 0) | (seeds >= graph.n)][0]
            graph._check_node(int(offender))
        seeds = sorted_unique(seeds)
    return seeds


class DiffusionModel(abc.ABC):
    """Abstract stochastic diffusion process over a :class:`DiGraph`."""

    #: Short identifier used in reports ("IC", "LT").
    name: str = "abstract"

    @abc.abstractmethod
    def sample_realization(
        self, graph: DiGraph, seed: RandomSource = None
    ) -> Realization:
        """Sample a full live-edge realization of ``graph``.

        The returned object supports deterministic replay: forward spreads
        computed from it are pure functions of the seeds.
        """

    def sample_worlds(
        self, graph: DiGraph, rng: np.random.Generator, count: int
    ) -> tuple[str, np.ndarray]:
        """``count`` realizations as their world kind and flat stacked noise.

        The layout :func:`~repro.diffusion.realization.stack_worlds` gives
        ``count`` consecutive :meth:`sample_realization` draws from ``rng``
        — which is what this default does; a model may override it with
        one vectorized pass that consumes ``rng`` identically.
        """
        from repro.diffusion.realization import stack_worlds

        return stack_worlds([self.sample_realization(graph, rng) for _ in range(count)])

    @abc.abstractmethod
    def reverse_sample_batch(
        self,
        graph: DiGraph,
        roots: np.ndarray,
        roots_indptr: np.ndarray,
        rng: np.random.Generator,
        scratch: np.ndarray = None,
        kernel: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate a whole batch of reverse samples in one call.

        Parameters
        ----------
        graph:
            The (residual) graph to sample in.
        roots:
            Flat int64 array concatenating every sample's (distinct) root
            node ids.
        roots_indptr:
            Int64 array of length ``batch + 1`` delimiting each sample's
            roots inside ``roots`` (CSR layout, starting at 0).
        rng:
            Generator supplying the edge coin flips.
        scratch:
            Optional pooled all-False boolean buffer of length at least
            ``batch * graph.n``; restored to all False before returning
            (see :func:`run_labeled_bfs`).  ``None`` allocates a
            fresh bitset.
        kernel:
            ``repro.kernels`` backend knob (``"auto"``, ``"numpy"``,
            ``"numba"``, ``"python"``); outputs are bit-identical across
            backends.

        Returns
        -------
        (members, indptr):
            CSR-packed results: ``members`` concatenates the visited node
            ids of every sample (roots included, order unspecified) and
            ``indptr`` (length ``batch + 1``) delimits them.

        The concrete models run a single multi-source labeled reverse BFS
        that expands all samples' frontiers level by level and flips every
        needed edge coin of a level in one vectorized draw.
        """

    @abc.abstractmethod
    def simulate_batch(
        self,
        graph: DiGraph,
        seeds: Sequence[int],
        n_sims: int,
        seed: RandomSource = None,
        scratch: np.ndarray = None,
        kernel: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``n_sims`` independent cascades from one seed set.

        The forward twin of :meth:`reverse_sample_batch`: every simulation
        starts from the same (validated, deduplicated) ``seeds`` and draws
        its own cascade noise.

        Parameters
        ----------
        graph:
            The graph to cascade over.
        seeds:
            Seed node ids; out-of-range ids raise
            :class:`~repro.errors.NodeNotFoundError`, duplicates are
            deduplicated (see :func:`normalize_seeds`).
        n_sims:
            Number of independent cascades to sample (>= 0).
        seed:
            Random source supplying the cascade noise.
        scratch:
            Optional pooled all-False boolean buffer of length at least
            ``n_sims * graph.n``; restored to all False before returning.
            ``None`` allocates a fresh bitset.
        kernel:
            ``repro.kernels`` backend knob (``"auto"``, ``"numpy"``,
            ``"numba"``, ``"python"``); outputs are bit-identical across
            backends.

        Returns
        -------
        (members, indptr):
            CSR-packed results: ``members`` concatenates the activated node
            ids of every simulation (seeds included) and ``indptr`` (length
            ``n_sims + 1``) delimits them, so per-simulation spreads are
            ``np.diff(indptr)`` and per-node activation counts are
            ``np.bincount(members, minlength=graph.n)``.

        The concrete models run a single multi-cascade labeled forward BFS
        that expands all simulations' frontiers level by level (one
        vectorized noise draw per level).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def run_labeled_bfs(
    n: int,
    starts: np.ndarray,
    starts_indptr: np.ndarray,
    propose=None,
    scratch: np.ndarray = None,
    expand=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared driver of the vectorized multi-sample labeled BFS.

    All samples advance in lockstep: the frontier is a pair of parallel
    arrays ``(sample_ids, nodes)`` and visitation is one flat bitset keyed
    ``sample_id * n + node`` (a packed ``(batch, n)`` matrix).  Per level,
    ``propose(frontier_sids, frontier_nodes)`` returns the candidate
    expansion as an array of such keys — it may freely contain duplicates
    and already-visited pairs; the driver filters, dedups, marks, and
    collects.  The driver is direction-agnostic: only the per-level
    edge-selection rule differs between models and directions (reverse IC
    flips every in-edge coin, forward IC every frontier out-edge coin,
    reverse LT keeps at most one in-edge, forward LT accumulates weights
    against per-``(sample, node)`` thresholds), which is exactly what the
    callback encapsulates.

    ``expand(visited, frontier_sids, frontier_nodes)`` is the fused
    alternative to ``propose`` used by the compiled kernel backends
    (:mod:`repro.kernels`): it applies the per-level rule, filters, dedups,
    marks ``visited`` in place, and returns the level's fresh keys
    **sorted ascending** — exactly the keys (in exactly the order) the
    ``propose`` route's filter/``sorted_unique``/mark sequence produces, so
    both routes yield bit-identical results.  Exactly one of ``propose``
    and ``expand`` must be given.

    ``scratch`` is an optional caller-pooled boolean buffer of length at
    least ``batch * n`` that is all False on entry; it is restored to all
    False before returning (only the visited keys are touched), so repeated engine calls on large graphs avoid allocating
    and zeroing a fresh bitset each time.
    """
    if (propose is None) == (expand is None):
        raise ConfigurationError(
            "run_labeled_bfs needs exactly one of propose= or expand="
        )
    starts = np.asarray(starts, dtype=np.int64)
    starts_indptr = np.asarray(starts_indptr, dtype=np.int64)
    batch = len(starts_indptr) - 1
    start_sids = np.repeat(
        np.arange(batch, dtype=np.int64), np.diff(starts_indptr)
    )
    visited = scratch if scratch is not None else np.zeros(batch * n, dtype=bool)
    visited[start_sids * n + starts] = True
    collected_sids = [start_sids]
    collected_nodes = [starts]
    frontier_sids, frontier_nodes = start_sids, starts
    while len(frontier_nodes):
        if expand is not None:
            keys = expand(visited, frontier_sids, frontier_nodes)
            if len(keys) == 0:
                break
        else:
            keys = propose(frontier_sids, frontier_nodes)
            if len(keys):
                keys = keys[~visited[keys]]  # filter first: unique sorts the rest
            if len(keys) == 0:
                break
            keys = sorted_unique(keys)  # dedup within the level
            visited[keys] = True
        frontier_sids, frontier_nodes = np.divmod(keys, n)
        collected_sids.append(frontier_sids)
        collected_nodes.append(frontier_nodes)
    all_sids = np.concatenate(collected_sids)
    all_nodes = np.concatenate(collected_nodes)
    if scratch is not None:
        visited[all_sids * n + all_nodes] = False  # restore the pooled buffer
    return pack_by_sample(all_sids, all_nodes, batch)


def expand_labeled_frontier(
    indptr: np.ndarray,
    frontier_sids: np.ndarray,
    frontier_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR positions and owning sample ids of a labeled frontier's edges.

    The shared prologue of every ``propose`` closure: gathers the CSR
    entries of all frontier nodes and labels each entry with the sample id
    that proposed it.  Returns ``(positions, owners, degrees)`` —
    ``positions`` indexes the CSR value arrays, ``owners`` is the parallel
    sample-id array, and ``degrees`` (per frontier node) lets closures that
    also need the proposing node run one more ``np.repeat``.
    """
    positions = gather_csr_rows(indptr, frontier_nodes)
    degrees = indptr[frontier_nodes + 1] - indptr[frontier_nodes]
    owners = np.repeat(frontier_sids, degrees)
    return positions, owners, degrees


def tile_starts(
    seeds: np.ndarray, n_sims: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR start sets for ``n_sims`` samples sharing one seed array.

    The common prologue of the forward ``simulate_batch`` overrides: every
    simulation's labeled BFS starts from the same seeds.
    """
    starts = np.tile(np.asarray(seeds, dtype=np.int64), n_sims)
    starts_indptr = np.arange(n_sims + 1, dtype=np.int64) * len(seeds)
    return starts, starts_indptr


def pack_start_sets(
    start_sets: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """CSR start sets for samples with one start array each."""
    starts = (
        np.concatenate(start_sets)
        if len(start_sets)
        else np.empty(0, dtype=np.int64)
    )
    starts_indptr = np.zeros(len(start_sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in start_sets], out=starts_indptr[1:])
    return starts, starts_indptr


def pack_by_sample(
    sample_ids: np.ndarray, nodes: np.ndarray, batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group ``(sample_ids, nodes)`` pairs into a CSR batch result.

    Shared epilogue of the vectorized ``reverse_sample_batch``
    implementations: a stable sort by sample id turns the level-ordered
    ``(sid, node)`` stream of the labeled BFS into the packed
    ``(members, indptr)`` layout that :meth:`CoverageIndex.add_batch`
    consumes directly.
    """
    order = np.argsort(sample_ids, kind="stable")
    members = nodes[order]
    counts = np.bincount(sample_ids, minlength=batch)
    indptr = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return members, indptr
