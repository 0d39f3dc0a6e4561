"""The batched (m)RR-set generation engine.

Every pool consumer in the library — TRIM, TRIM-B, AdaptIM's OPIM selector,
IMM, OPIM, ATEUC — grows its pool through :class:`BatchSampler`, which
requests ``batch_size`` reverse samples per call to
:meth:`~repro.diffusion.base.DiffusionModel.reverse_sample_batch` and hands
the CSR-packed result straight to
:meth:`~repro.sampling.coverage.CoverageIndex.add_batch`.  A ``grow_to``
that previously paid per-set Python dispatch thousands of times per round
now runs ``ceil(missing / batch_size)`` engine calls, each a handful of
vectorized NumPy operations over all samples at once.

Root selection is a strategy object so the same engine serves both set
families:

* :class:`UniformRootDrawer` — one uniform root per sample (vanilla RR
  sets, Borgs et al. 2014);
* :class:`RandomizedRoundingRootDrawer` — the paper's Theorem 3.3 root
  count ``k in {k_low, k_low + 1}`` with ``E[k] = n / eta``, drawn and
  deduplicated for a whole batch at a time (mRR sets, Definition 3.2).

The one-at-a-time samplers in :mod:`repro.testing.reference` are the
distributional reference that the batch-equivalence tests check against.

Engine policy — samples per call, the parallel runtime, the kernel backend,
the pool store — comes from the sampler's
:class:`~repro.runtime.context.ExecutionContext`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError, SamplingError
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.store.keys import (
    artifact_key,
    generator_state,
    graph_fingerprint,
    model_key,
    restore_generator_state,
    rng_state_token,
)
from repro.utils.arrays import sorted_unique
from repro.utils.rng import RandomSource, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mrr imports engine)
    from repro.sampling.mrr import RootCountRule


class RootDrawer(abc.ABC):
    """Strategy producing the root sets for a batch of reverse samples."""

    @abc.abstractmethod
    def draw(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Roots for ``count`` samples as a CSR ``(roots, indptr)`` pair.

        Each sample's roots must be distinct node ids; ``indptr`` has
        length ``count + 1`` and starts at 0.
        """


class UniformRootDrawer(RootDrawer):
    """One uniformly random root per sample — vanilla RR sets."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"need n >= 1, got {n}")
        self.n = int(n)

    def draw(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        roots = rng.integers(self.n, size=count, dtype=np.int64)
        return roots, np.arange(count + 1, dtype=np.int64)


class RandomizedRoundingRootDrawer(RootDrawer):
    """Multi-root sets with the paper's randomized-rounding count rule.

    Root counts are drawn for the whole batch in one Bernoulli draw; the
    distinct roots of all samples sharing a count ``k`` are then sampled
    together — by vectorized rejection when ``k`` is small relative to
    ``n`` (collisions are rare, the occasional colliding row is redrawn),
    or by row-wise permutation when ``k`` is a sizable fraction of ``n``.
    """

    def __init__(self, rule: RootCountRule):
        self.rule = rule
        self.n = int(rule.n)

    def draw(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        ks = np.full(count, self.rule.k_low, dtype=np.int64)
        if self.rule.fraction > 0.0:
            ks += rng.random(count) < self.rule.fraction
        np.clip(ks, 1, self.n, out=ks)

        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(ks, out=indptr[1:])
        roots = np.empty(indptr[-1], dtype=np.int64)
        for k in sorted_unique(ks):
            rows = np.flatnonzero(ks == k)
            block = self._distinct_rows(rng, len(rows), int(k))
            positions = indptr[rows, None] + np.arange(k, dtype=np.int64)
            roots[positions.ravel()] = block.ravel()
        return roots, indptr

    #: Workspace budget (elements) for the argpartition path; bounds the
    #: per-chunk ``(rows, n)`` scratch to ~32 MB of float64 keys.
    _WORKSPACE_ELEMENTS = 4_000_000

    def _distinct_rows(
        self, rng: np.random.Generator, rows: int, k: int
    ) -> np.ndarray:
        """``rows`` independent uniform k-subsets of ``range(n)``.

        Two regimes, split by the birthday bound:

        * ``k(k-1) <= 2n`` — whole-row rejection: a with-replacement draw
          is kept only if all entries are distinct (per-row acceptance
          ``~exp(-k(k-1)/2n) >= ~1/e``, so only rejected rows are redrawn
          and the loop finishes in a handful of shrinking rounds), which
          conditions on distinctness and is exactly uniform over
          k-subsets.  Rejection must NOT be used beyond this band: for
          ``k >> sqrt(n)`` the acceptance probability vanishes and the
          loop effectively never terminates.
        * otherwise — the positions of the ``k`` smallest of ``n`` iid
          uniform keys per row are a uniform k-subset; one vectorized
          ``argpartition`` per chunk, with chunks sized to keep the
          ``(chunk, n)`` key matrix inside a fixed workspace budget.
        """
        if k == 1:
            return rng.integers(self.n, size=(rows, 1), dtype=np.int64)
        if k * (k - 1) <= 2 * self.n:
            block = rng.integers(self.n, size=(rows, k), dtype=np.int64)
            suspect = np.arange(rows)  # rows not yet known collision-free
            while len(suspect):
                ordered = np.sort(block[suspect], axis=1)
                bad = suspect[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
                if len(bad):
                    block[bad] = rng.integers(
                        self.n, size=(len(bad), k), dtype=np.int64
                    )
                suspect = bad
            return block
        block = np.empty((rows, k), dtype=np.int64)
        chunk = max(1, self._WORKSPACE_ELEMENTS // self.n)
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            keys = rng.random((stop - start, self.n))
            block[start:stop] = np.argpartition(keys, k - 1, axis=1)[:, :k]
        return block


class BatchSampler:
    """Grows an (m)RR pool ``batch_size`` sets per vectorized engine call.

    Parameters
    ----------
    graph:
        The (residual) graph to sample in.
    model:
        Diffusion model providing
        :meth:`~repro.diffusion.base.DiffusionModel.reverse_sample_batch`.
    roots:
        Root-selection strategy (uniform single root for RR pools, the
        randomized-rounding rule for mRR pools).
    seed:
        Random source; pass the caller's generator to share one stream.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` (``None``
        means ``ExecutionContext()``).  ``context.sample_batch_size`` sets
        the samples per engine call: larger batches amortize dispatch
        further but grow the per-call ``batch * n`` visitation bitset.
        With ``context.runtime`` set, :meth:`fill` switches to the
        chunk-seeded parallel scheme: every engine call's chunk draws from
        its own child stream (spawned from a root
        :class:`~numpy.random.SeedSequence` by global chunk index), and
        chunks are sharded across the runtime's workers.  The resulting
        pool is bit-identical for **any** worker count — a ``jobs=1``
        runtime runs the same chunks in-process — but differs from the
        single-stream path, which remains the reference when ``jobs`` is
        ``None``.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        roots: RootDrawer,
        seed: RandomSource = None,
        context: Optional[ExecutionContext] = None,
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample reverse sets on an empty graph")
        if context is None:
            context = ExecutionContext()
        self.graph = graph
        self.model = model
        self.roots = roots
        self.batch_size = context.sample_batch_size
        # Per-level BFS backend knob (see repro.kernels); pools are
        # bit-identical across backends, so this is pure policy.
        self._kernel = context.kernel_backend
        self._rng = as_generator(seed)
        self._runtime = context.runtime
        # Persistent artifact store (see repro.store): consulted before
        # regenerating a fill.  Disabled for unseeded samplers — their
        # stream is OS entropy, so no future run could ever hit the
        # entries they would write.
        self._store = context.pool_store if seed is not None else None
        self._context = context
        # Chunk-indexed seeding root: one draw from the caller's stream
        # fixes every future chunk's stream up front (SeedSequence.spawn
        # tracks how many children were already spawned, so the k-th chunk
        # of the sampler's lifetime gets the k-th child no matter how the
        # fill calls are sliced or sharded).
        self._chunk_root = (
            np.random.SeedSequence(int(self._rng.integers(np.iinfo(np.int64).max)))
            if self._runtime is not None
            else None
        )
        # Pooled visitation bitset, allocated lazily at batch_size * n and
        # restored to all-False by the BFS driver after every call — the
        # batched analogue of the scalar samplers' pooled scratch.
        self._scratch: np.ndarray = None

    def sample_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``count`` reverse samples in one engine call.

        Returns the CSR-packed ``(members, indptr)`` pair produced by the
        model's multi-source labeled reverse BFS.
        """
        members, indptr, _ = self._sample_batch_counted(count)
        return members, indptr

    def _sample_batch_counted(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_batch` plus the per-sample root counts.

        The root counts feed the adaptive engine's cross-round pool
        carry-over, which re-validates retained mRR sets against the next
        round's root-count rule.
        """
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.zeros(1, dtype=np.int64), empty
        self._ensure_scratch(count)
        roots, roots_indptr = self.roots.draw(self._rng, count)
        members, indptr = self.model.reverse_sample_batch(
            self.graph, roots, roots_indptr, self._rng, self._scratch,
            kernel=self._kernel,
        )
        return members, indptr, np.diff(roots_indptr)

    def _ensure_scratch(self, count: int) -> np.ndarray:
        if self._scratch is None or len(self._scratch) < count * self.graph.n:
            self._scratch = np.zeros(
                max(count, self.batch_size) * self.graph.n, dtype=bool
            )
        return self._scratch

    def fill(self, index: CoverageIndex, count: int) -> np.ndarray:
        """Append ``count`` fresh sets to ``index``, batch by batch.

        The Python-level loop runs once per *batch*, never per set.
        Returns the per-set root counts in generation order (all ones for
        single-root RR pools).

        With a :class:`~repro.parallel.runtime.ParallelRuntime` attached,
        the batches become independent chunk work units sharded across the
        runtime's workers and merged back in chunk order (see
        :meth:`grow_to` and the constructor's ``runtime`` note).
        """
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        if self._runtime is not None:
            return self._fill_parallel(index, count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        store_key = None
        if self._store is not None:
            # Single-stream path: the fill consumes the caller's shared
            # stream, so the recipe keys on the generator's exact state
            # going in, and a hit restores the recorded state coming out —
            # every downstream draw is bit-identical to regenerating.
            store_key = artifact_key(
                "pool",
                {
                    **self._recipe(),
                    "mode": "stream",
                    "count": int(count),
                    "state": rng_state_token(self._rng),
                },
            )
            cached = self._store.load(store_key)
            if cached is not None:
                arrays, meta = cached
                if restore_generator_state(self._rng, meta.get("rng_state")):
                    index.add_batch(arrays["members"], arrays["indptr"])
                    self._tally("pool_store_pool_hits")
                    return arrays["root_counts"]
        remaining = count
        batches = []
        while remaining > 0:
            step = min(remaining, self.batch_size)
            members, indptr, root_counts = self._sample_batch_counted(step)
            index.add_batch(members, indptr)
            batches.append((members, indptr, root_counts))
            remaining -= step
        if store_key is not None:
            members, indptr = _merge_csr_batches(batches)
            self._store.save(
                store_key,
                {
                    "members": members,
                    "indptr": indptr,
                    "root_counts": np.concatenate([b[2] for b in batches]),
                },
                {"rng_state": generator_state(self._rng)},
            )
        return np.concatenate([b[2] for b in batches])

    def grow_to(self, index: CoverageIndex, theta: int) -> np.ndarray:
        """Top ``index`` up to at least ``theta`` sets; see :meth:`fill`."""
        return self.fill(index, max(0, int(theta) - len(index)))

    def _fill_parallel(self, index: CoverageIndex, count: int) -> np.ndarray:
        """Chunk-seeded fill: deterministic for any worker count.

        The count splits into the same ``min(remaining, batch_size)``
        chunks as the sequential loop; chunk ``k`` (globally indexed over
        the sampler's lifetime) draws from the ``k``-th child of the
        sampler's root seed sequence, runs
        :func:`repro.parallel.tasks.sample_chunk` — in-process for a
        ``jobs=1`` runtime, on the worker pool otherwise — and the
        CSR-packed results merge into ``index`` in chunk order.
        """
        from repro.parallel.tasks import sample_chunk, worker_sample_chunk

        chunks: list[int] = []
        remaining = count
        while remaining > 0:
            step = min(remaining, self.batch_size)
            chunks.append(step)
            remaining -= step
        if not chunks:
            return np.empty(0, dtype=np.int64)
        store_key = None
        if self._store is not None:
            # Chunk-seeded path: every chunk's stream is fixed by the root
            # SeedSequence's entropy and the global spawn offset, so those
            # two values (plus the chunk decomposition) *are* the exact
            # randomness recipe — no generator state to capture.  A hit
            # spawns (and discards) the same children to keep the offset
            # aligned for subsequent fills.
            store_key = artifact_key(
                "pool",
                {
                    **self._recipe(),
                    "mode": "chunks",
                    "entropy": str(self._chunk_root.entropy),
                    "spawn_offset": int(self._chunk_root.n_children_spawned),
                    "chunks": chunks,
                },
            )
            cached = self._store.load(store_key)
            if cached is not None:
                arrays, _ = cached
                self._chunk_root.spawn(len(chunks))
                index.add_batch(arrays["members"], arrays["indptr"])
                self._tally("pool_store_pool_hits")
                return arrays["root_counts"]
        seqs = self._chunk_root.spawn(len(chunks))
        if not self._runtime.parallel:
            results = [
                sample_chunk(
                    self.graph,
                    self.model,
                    self.roots,
                    step,
                    seq,
                    self._ensure_scratch(step),
                    kernel=self._kernel,
                )
                for step, seq in zip(chunks, seqs)
            ]
        else:
            graph_handle = self._runtime.publish_graph(self.graph)
            results = self._runtime.map_ordered(
                worker_sample_chunk,
                [
                    (graph_handle, self.model, self.roots, step, seq,
                     self._kernel)
                    for step, seq in zip(chunks, seqs)
                ],
            )
        collected = []
        for members, indptr, root_counts in results:
            index.add_batch(members, indptr)
            collected.append(root_counts)
        if store_key is not None:
            members, indptr = _merge_csr_batches(list(results))
            self._store.save(
                store_key,
                {
                    "members": members,
                    "indptr": indptr,
                    "root_counts": np.concatenate(collected),
                },
                {},
            )
        return np.concatenate(collected)

    # ------------------------------------------------------------------
    # Persistent-store plumbing
    # ------------------------------------------------------------------

    def _recipe(self) -> dict[str, object]:
        """The generation-recipe fields shared by every fill of this sampler."""
        return {
            "graph": graph_fingerprint(self.graph),
            "model": model_key(self.model),
            "roots": _roots_token(self.roots),
            "batch_size": self.batch_size,
        }

    def _tally(self, name: str) -> None:
        self._context.tally(name)


def _roots_token(roots: RootDrawer) -> str:
    """A root-drawer's identity for the store's generation-recipe key."""
    if isinstance(roots, RandomizedRoundingRootDrawer):
        rule = roots.rule
        return (
            f"rounding(n={roots.n},k_low={rule.k_low},"
            f"fraction={rule.fraction!r})"
        )
    if isinstance(roots, UniformRootDrawer):
        return f"uniform(n={roots.n})"
    # Unknown drawers key on their type: never a wrong hit, at worst a
    # collision between two instances of the same (parameterless) class —
    # which the RNG-state / seed-recipe component still disambiguates.
    return f"{type(roots).__module__}.{type(roots).__qualname__}"


def _merge_csr_batches(
    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-batch ``(members, indptr, _)`` CSR pieces."""
    members = np.concatenate([batch[0] for batch in batches])
    total_sets = sum(len(batch[1]) - 1 for batch in batches)
    indptr = np.zeros(total_sets + 1, dtype=np.int64)
    position, offset = 1, 0
    for _members, batch_indptr, _ in batches:
        size = len(batch_indptr) - 1
        indptr[position:position + size] = batch_indptr[1:] + offset
        position += size
        offset += int(batch_indptr[-1])
    return members, indptr


def rr_batch_sampler(
    graph: DiGraph,
    model: DiffusionModel,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> BatchSampler:
    """Engine for single-root RR pools."""
    return BatchSampler(graph, model, UniformRootDrawer(graph.n), seed, context)


def mrr_batch_sampler(
    graph: DiGraph,
    model: DiffusionModel,
    rule: RootCountRule,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> BatchSampler:
    """Engine for multi-root mRR pools under a root-count rule."""
    return BatchSampler(
        graph, model, RandomizedRoundingRootDrawer(rule), seed, context
    )
