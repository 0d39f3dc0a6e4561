"""Monte-Carlo spread estimation on the batched forward engine.

The classic (pre-RR-set) way of estimating ``E[I(S)]`` and the truncated
``E[Gamma(S)]``: average over independent forward simulations.  Unbiased and
dead simple — the test suite uses it as ground truth to validate the
sampling-based estimators, and the oracle-greedy and CELF baselines use it
on graphs too big for exact enumeration.

Two execution strategies share this module:

* **fresh-noise estimation** (:func:`estimate_spread`,
  :func:`estimate_truncated_spread`,
  :func:`estimate_activation_probabilities`) — cascades are generated in
  chunks of the context's ``mc_batch_size`` through
  :meth:`~repro.diffusion.base.DiffusionModel.simulate_batch`, one labeled
  forward BFS per chunk instead of one Python-level BFS per cascade, with
  an optional early stop once the normal-approximation CI half-width falls
  below the context's ``mc_tolerance``;
* **common-random-numbers evaluation** (:class:`CRNSpreadEvaluator`,
  :func:`estimate_spreads_many`) — one shared batch of live-edge
  realizations is sampled up front and arbitrarily many candidate seed sets
  are scored against the *same* realizations, so comparisons between
  candidates (greedy argmax, CELF's lazy queue) see identical noise and
  differences reflect the candidates, not the sampling.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.diffusion.base import (
    DiffusionModel,
    normalize_seeds,
    pack_start_sets,
)
from repro.diffusion.realization import replay_worlds
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.utils.rng import RandomSource, as_generator
from repro.utils.validation import check_positive_int

#: Default number of cascades generated per labeled forward BFS.  Mirrors
#: the reverse engine's ``DEFAULT_BATCH_SIZE``: large enough to amortize
#: NumPy dispatch over the chunk, while the chunk's ``mc_batch_size * n``
#: visitation bitset (plus, under LT, two float arrays of the same shape)
#: stays cache- and memory-friendly.  Memory-constrained callers on very
#: large graphs should dial this down via ``ExecutionContext.mc_batch_size``.
DEFAULT_MC_BATCH_SIZE = 256

#: Visitation-bitset budget (elements) of the CRN evaluator: candidate
#: chunks are sized so ``chunk * n_sims * n`` stays below this (~32 MB of
#: booleans), bounding the working set of one labeled forward pass.
_CRN_BITSET_BUDGET = 32_000_000

#: Active-node work budget per estimator chunk.  Batching pays off when
#: cascades are small (dispatch-dominated); when they are large, a big
#: chunk's scattered ``chunk * n`` accumulator writes fall out of cache and
#: can lose to the already frontier-vectorized scalar loop.  After the
#: first chunk the estimators therefore shrink the chunk so that
#: ``chunk * mean_cascade_size`` stays near this budget.
_CHUNK_WORK_BUDGET = 16_384


@dataclass(frozen=True)
class MonteCarloEstimate:
    """An estimate with its sampling error."""

    mean: float
    std_error: float
    samples: int

    def confidence_interval(self, z: float = 1.96):
        """Normal-approximation CI half-width scaled by ``z``."""
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)


def _estimate_from_sizes(sizes: np.ndarray) -> MonteCarloEstimate:
    samples = len(sizes)
    std_error = (
        float(sizes.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    )
    return MonteCarloEstimate(float(sizes.mean()), std_error, samples)


def _chunked_spread_sizes(
    graph: DiGraph,
    model: DiffusionModel,
    seeds: Sequence[int],
    samples: int,
    rng: np.random.Generator,
    context: Optional[ExecutionContext],
    eta: Optional[int] = None,
    z: float = 1.96,
) -> np.ndarray:
    """Cascade sizes in chunks of ``mc_batch_size`` with optional early stop.

    Always generates at least one full chunk (``min(samples,
    mc_batch_size)`` cascades); after each chunk, if the context's
    ``mc_tolerance`` is set and the running normal-approximation
    half-width ``z * stderr`` has fallen below it, stops before reaching
    ``samples``.

    ``mc_batch_size`` (the context's, else :data:`DEFAULT_MC_BATCH_SIZE`)
    is an upper bound: once the first chunk reveals the mean cascade size,
    subsequent chunks shrink toward ``_CHUNK_WORK_BUDGET / mean`` so the
    per-chunk working set stays cache-resident on large-cascade seed sets
    (see the budget's note).
    """
    if context is None:
        context = ExecutionContext()
    mc_batch_size = context.mc_batch_size or DEFAULT_MC_BATCH_SIZE
    tolerance = context.mc_tolerance
    pieces: list[np.ndarray] = []
    generated = 0
    running_sum = 0.0
    running_sumsq = 0.0
    chunk_cap = mc_batch_size
    # One pooled visitation bitset reused across chunks (the first chunk is
    # the largest); the BFS driver restores it to all-False after each call.
    scratch = np.zeros(min(samples, mc_batch_size) * graph.n, dtype=bool)
    while generated < samples:
        step = min(samples - generated, chunk_cap)
        _, indptr = model.simulate_batch(
            graph, seeds, step, rng, scratch, kernel=context.kernel_backend
        )
        raw_sizes = np.diff(indptr).astype(np.float64)
        sizes = (
            np.minimum(raw_sizes, float(eta)) if eta is not None else raw_sizes
        )
        pieces.append(sizes)
        generated += step
        if tolerance is not None and generated < samples:
            # O(chunk) running moments, not a re-reduction of everything
            # generated so far; cancellation can only push the variance a
            # hair negative, hence the clamp.
            running_sum += float(sizes.sum())
            running_sumsq += float(sizes @ sizes)
            if generated > 1:
                variance = max(
                    0.0,
                    (running_sumsq - running_sum**2 / generated)
                    / (generated - 1),
                )
                if z * np.sqrt(variance / generated) <= tolerance:
                    break
        if chunk_cap == mc_batch_size:  # adapt once, off the first chunk
            # The cache guard must see the *untruncated* cascade sizes: an
            # eta-clipped mean would hide exactly the large cascades whose
            # scattered writes it exists to bound.
            mean_size = max(1.0, float(raw_sizes.mean()))
            chunk_cap = min(
                mc_batch_size, max(8, int(_CHUNK_WORK_BUDGET / mean_size))
            )
    return np.concatenate(pieces)


def estimate_spread(
    graph: DiGraph,
    model: DiffusionModel,
    seeds: Sequence[int],
    samples: int = 1000,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> MonteCarloEstimate:
    """Estimate ``E[I(S)]`` by averaging up to ``samples`` forward cascades.

    Cascades are generated ``context.mc_batch_size`` at a time (``None``
    there picks the engine default) through the batched forward engine.
    When ``context.mc_tolerance`` is set, estimation stops early — but
    never before the first chunk — once the 95% CI half-width
    (``1.96 * stderr``) drops to the tolerance; the returned estimate's
    ``samples`` field reports how many cascades were actually used.
    """
    check_positive_int(samples, "samples")
    sizes = _chunked_spread_sizes(
        graph, model, seeds, samples, as_generator(seed), context
    )
    return _estimate_from_sizes(sizes)


def estimate_truncated_spread(
    graph: DiGraph,
    model: DiffusionModel,
    seeds: Sequence[int],
    eta: int,
    samples: int = 1000,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> MonteCarloEstimate:
    """Estimate ``E[Gamma(S)] = E[min{I(S), eta}]`` by batched simulation."""
    check_positive_int(samples, "samples")
    check_positive_int(eta, "eta")
    sizes = _chunked_spread_sizes(
        graph, model, seeds, samples, as_generator(seed), context, eta=eta
    )
    return _estimate_from_sizes(sizes)


def estimate_activation_probabilities(
    graph: DiGraph,
    model: DiffusionModel,
    seeds: Sequence[int],
    samples: int = 1000,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Per-node activation probability under cascades from ``seeds``.

    Diagnostic helper: returns a float array ``p[v] = Pr[v active]``.  The
    batched engine's packed output makes the accumulation one ``bincount``
    per chunk instead of one dense mask addition per cascade.  Always runs
    all ``samples`` cascades (no early stop).
    """
    check_positive_int(samples, "samples")
    if context is None:
        context = ExecutionContext()
    mc_batch_size = context.mc_batch_size or DEFAULT_MC_BATCH_SIZE
    rng = as_generator(seed)
    totals = np.zeros(graph.n, dtype=np.float64)
    generated = 0
    scratch = np.zeros(min(samples, mc_batch_size) * graph.n, dtype=bool)
    while generated < samples:
        step = min(samples - generated, mc_batch_size)
        members, _ = model.simulate_batch(
            graph, seeds, step, rng, scratch, kernel=context.kernel_backend
        )
        totals += np.bincount(members, minlength=graph.n)
        generated += step
    return totals / samples


def crn_chunk(
    graph: DiGraph,
    kind: str,
    worlds: np.ndarray,
    sets_block: Sequence[np.ndarray],
    world_ids: np.ndarray,
    scratch: Optional[np.ndarray] = None,
    kernel: str = "auto",
) -> np.ndarray:
    """One CRN sweep: realized spreads of a block of (candidate, world) jobs.

    Job ``j`` starts from seed set ``sets_block[j]`` and expands over the
    live edges of world ``world_ids[j]`` through
    :func:`~repro.diffusion.realization.replay_worlds`.  Pure function of
    its inputs (the worlds are pre-sampled), so the evaluator can run
    sweeps in-process or shard them across worker processes — and replay
    is deterministic, so results are bit-identical for every worker count
    and every ``kernel`` backend (see :mod:`repro.kernels`).
    """
    _, indptr = replay_worlds(
        graph,
        kind,
        worlds,
        world_ids,
        *pack_start_sets(sets_block),
        scratch=scratch,
        kernel=kernel,
    )
    return np.diff(indptr).astype(np.float64)


class CRNSpreadEvaluator:
    """Score many candidate seed sets against shared cascade noise.

    Samples ``n_sims`` live-edge realizations once at construction, then
    evaluates arbitrarily many candidate seed sets against those *same*
    realizations (common random numbers).  Two properties make this the
    right estimator for greedy selection loops:

    * **comparability** — two candidates are scored on identical worlds, so
      their difference is free of between-candidate sampling noise and a
      superset never scores below its subset;
    * **batch throughput** — each evaluation batch flattens the
      ``(candidate, realization)`` pairs into jobs of one labeled forward
      BFS (chunked to a visitation-bitset budget), so CELF's ``n``-singleton
      initialization runs as a handful of vectorized sweeps instead of
      ``n * n_sims`` per-cascade Python loops.

    The worlds come from one ``model.sample_worlds`` call: for IC-family
    models (including the topic-aware collapse) one flat live-edge matrix,
    for LT one flat chosen-in-edge matrix drawn in a single vectorized
    pass.  A model whose realizations are neither raises
    :class:`~repro.errors.DiffusionError` (see
    :func:`~repro.diffusion.realization.stack_worlds`).

    Construction is deterministic: the worlds are drawn from ``seed`` in
    order, so two evaluators built with the same ``(graph, model, n_sims,
    seed)`` score every candidate identically.

    Engine policy comes from ``context`` (``None`` means
    ``ExecutionContext()``):

    * ``mc_batch_size``, when set, bounds the number of concurrently
      replayed cascades (jobs) per labeled sweep — the CRN analogue of the
      estimators' chunk size, giving the sweep the same
      ``mc_batch_size * n`` visitation-bitset working set.  ``None`` sizes
      sweeps from ``bitset_budget`` instead, which amortizes dispatch
      further at the price of a larger (~32 MB) bitset;
    * ``runtime`` shards the sweeps of each evaluation batch across the
      workers over the shared-memory worlds.  Realizations are always
      sampled here in the parent, and each sweep is a pure function of
      pre-sampled noise, so the returned estimates are bit-identical with
      or without a runtime, for any worker count;
    * ``kernel_backend`` and ``pool_store`` as for the reverse engine.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        n_sims: int = 200,
        seed: RandomSource = None,
        bitset_budget: int = _CRN_BITSET_BUDGET,
        context: Optional[ExecutionContext] = None,
    ):
        check_positive_int(n_sims, "n_sims")
        if context is None:
            context = ExecutionContext()
        self._kernel = context.kernel_backend
        self.graph = graph
        self.model = model
        self.n_sims = int(n_sims)
        rng = as_generator(seed)
        # Persistent realization-batch cache (see repro.store): the worlds
        # are a pure function of (graph, model, n_sims, the generator's
        # exact pre-sampling state), so a hit restores the recorded
        # post-sampling state and is bit-identical to resampling.  Unseeded
        # evaluators skip the store — nothing could ever hit their keys.
        store = context.pool_store if seed is not None else None
        store_key = None
        if store is not None:
            from repro.store import (
                artifact_key,
                generator_state,
                graph_fingerprint,
                model_key,
                restore_generator_state,
                rng_state_token,
            )

            store_key = artifact_key(
                "crn",
                {
                    "graph": graph_fingerprint(graph),
                    "model": model_key(model),
                    "n_sims": self.n_sims,
                    "state": rng_state_token(rng),
                },
            )
            cached = store.load(store_key)
            if cached is not None:
                arrays, meta = cached
                kind = meta.get("world_kind")
                if kind in ("ic", "lt") and restore_generator_state(
                    rng, meta.get("rng_state")
                ):
                    self._kind = kind
                    self._worlds = arrays["worlds"]
                    context.telemetry.add("pool_store_crn_hits")
                else:
                    store_key = None  # unusable artifact: resample, no save
        if not hasattr(self, "_kind"):
            self._kind, self._worlds = model.sample_worlds(graph, rng, self.n_sims)
            if store_key is not None:
                store.save(
                    store_key,
                    {"worlds": self._worlds},
                    {"world_kind": self._kind, "rng_state": generator_state(rng)},
                )
        self._bitset_budget = max(int(bitset_budget), graph.n)
        self._mc_batch_size = context.mc_batch_size
        self._runtime = context.runtime
        self._worlds_handle = None  # lazily published shared-memory worlds
        # The publication lives in an ExitStack entered on the runtime's
        # ``published()`` context manager: the release is registered with
        # the stack *before* the handle reaches any evaluator code, so no
        # exception window can strand the segment until runtime close.
        self._worlds_stack = contextlib.ExitStack()
        self._scratch: np.ndarray = None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def spread_matrix(self, seed_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """``sizes[c, r] = I_phi_r(S_c)`` for every candidate/realization.

        The raw material of every aggregate: a ``(len(seed_sets), n_sims)``
        float matrix of realized spreads on the shared worlds.
        """
        sets = [normalize_seeds(self.graph, s) for s in seed_sets]
        n, r = self.graph.n, self.n_sims
        # Jobs are candidate-major: job j = (candidate j // r, world j % r),
        # and sweeps slice the job list directly, so a single candidate's
        # realizations may span sweeps — the jobs-per-sweep bound holds
        # even when it is smaller than n_sims.
        total = len(sets) * r
        if self._mc_batch_size is not None:
            sweep = self._mc_batch_size
        else:
            sweep = max(1, self._bitset_budget // n)
        sweep = min(sweep, max(1, total))
        spans = [
            (begin, min(begin + sweep, total)) for begin in range(0, total, sweep)
        ]

        def block_args(begin, end):
            block_sets = [sets[j // r] for j in range(begin, end)]
            world_ids = np.arange(begin, end, dtype=np.int64) % r
            return block_sets, world_ids

        parallel = (
            self._runtime is not None
            and self._runtime.parallel
            and len(spans) > 1
        )
        if parallel:
            graph_handle = self._runtime.publish_graph(self.graph)
            if self._worlds_handle is None:
                self._worlds_handle = self._worlds_stack.enter_context(
                    self._runtime.published({"worlds": self._worlds})
                )
            from repro.parallel.tasks import collect_chunks, worker_crn_chunk

            pieces = collect_chunks(self._runtime.map_ordered(
                worker_crn_chunk,
                [
                    (graph_handle, self._kind, self._worlds_handle)
                    + block_args(begin, end)
                    + (self._kernel,)
                    for begin, end in spans
                ],
            ))
            return np.concatenate(pieces).reshape(len(sets), r)
        if self._scratch is None or len(self._scratch) < sweep * n:
            self._scratch = np.zeros(sweep * n, dtype=bool)
        job_sizes = np.empty(total, dtype=np.float64)
        for begin, end in spans:
            block_sets, world_ids = block_args(begin, end)
            job_sizes[begin:end] = crn_chunk(
                self.graph,
                self._kind,
                self._worlds,
                block_sets,
                world_ids,
                self._scratch,
                kernel=self._kernel,
            )
        return job_sizes.reshape(len(sets), r)

    def evaluate_many(
        self, seed_sets: Sequence[Sequence[int]], eta: Optional[int] = None
    ) -> np.ndarray:
        """Mean (optionally ``eta``-truncated) spread of every candidate.

        Returns a float array aligned with ``seed_sets``; all entries are
        averages over the same ``n_sims`` realizations.
        """
        sizes = self.spread_matrix(seed_sets)
        if eta is not None:
            check_positive_int(eta, "eta")
            np.minimum(sizes, float(eta), out=sizes)
        return sizes.mean(axis=1)

    def evaluate(
        self, seeds: Sequence[int], eta: Optional[int] = None
    ) -> float:
        """Mean spread of one candidate on the shared realizations."""
        return float(self.evaluate_many([seeds], eta=eta)[0])

    def close(self) -> None:
        """Unlink this evaluator's published shared-memory worlds.

        A no-op unless a multi-worker runtime actually published them.
        The runtime also unlinks everything at its own close, but callers
        that build many evaluators against one long-lived runtime (a
        sweep with CELF in the roster) should release each evaluator's
        worlds segment as soon as its evaluations are done.  Safe to call
        repeatedly; the evaluator falls back to in-process sweeps if used
        again afterwards.
        """
        self._worlds_stack.close()
        if self._worlds_handle is not None:
            self._worlds_handle = None
            self._runtime = None

    def __enter__(self) -> CRNSpreadEvaluator:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

def estimate_spreads_many(
    graph: DiGraph,
    model: DiffusionModel,
    seed_sets: Sequence[Sequence[int]],
    n_sims: int = 200,
    eta: Optional[int] = None,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """One-shot common-random-number evaluation of many candidate sets.

    Convenience wrapper constructing a throwaway :class:`CRNSpreadEvaluator`
    — callers that re-evaluate against the same noise (CELF's lazy queue)
    should hold on to an evaluator instead.  ``context`` supplies the
    ``mc_batch_size`` / runtime policy; a runtime shards the sweeps across
    workers and the estimates are bit-identical either way.
    """
    with CRNSpreadEvaluator(
        graph, model, n_sims=n_sims, seed=seed, context=context
    ) as evaluator:
        return evaluator.evaluate_many(seed_sets, eta=eta)
