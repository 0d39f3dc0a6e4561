"""The multi-realization comparison harness.

Reproduces the paper's measurement protocol (Section 6): sample a fixed set
of ground-truth realizations per dataset (the paper uses 20), run every
algorithm against the *same* realizations, and report averages.

Adaptive algorithms (ASTI variants, AdaptIM) run once per realization.
Non-adaptive ATEUC selects its seed set once per ``(graph, eta)`` and is
then *evaluated* on each realization — which is where the N/A entries of
Table 3 come from: a fixed set can undershoot ``eta`` on some worlds.

With ``jobs > 1`` (``ExperimentConfig.jobs`` / the runtime of
``run_eta_point``'s context) the independent realizations shard across
the parallel runtime's worker processes over the shared-memory graph and
stacked live-edge worlds: adaptive sessions run in contiguous blocks
through the same ``run_batch`` engine, and CELF's CRN sweeps fan out inside
the selection itself.  Non-adaptive scoring stays in-process: one batched
replay of the selected set over every world.  Every session keeps the
per-realization stream spawned from the harness seed, so seed counts,
spreads, and marginal series are bit-identical for any worker count
(including the in-process ``jobs=1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.baselines.adaptim import AdaptIM
from repro.baselines.ateuc import ATEUC
from repro.baselines.celf import CELFMinimizer
from repro.core.asti import ASTI
from repro.diffusion.base import DiffusionModel
from repro.diffusion.realization import (
    ICRealization,
    LTRealization,
    Realization,
    batch_reachable_from,
    stack_worlds,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.graph.digraph import DiGraph
from repro.kernels import snapshot_stats
from repro.parallel.shm import realizations_shareable
from repro.runtime.context import ExecutionContext
from repro.utils.rng import spawn_generators, spawn_seed_sequences
from repro.utils.stats import summarize

#: Roster entries that select one seed set up front and are then merely
#: *evaluated* on each ground-truth realization.
NON_ADAPTIVE_ALGORITHMS = ("ATEUC", "CELF")

#: Monte-Carlo cascades per estimate for the CELF roster entry; modest on
#: purpose — CELF is the historical baseline, not a headline competitor.
CELF_HARNESS_SAMPLES = 100


@dataclass(frozen=True)
class RunObservation:
    """One algorithm on one ground-truth realization."""

    realization_index: int
    seed_count: int
    spread: int
    achieved: bool
    seconds: float
    marginal_spreads: tuple[int, ...] = ()


@dataclass
class AlgorithmOutcome:
    """All runs of one algorithm at one ``(graph, eta)`` point."""

    algorithm: str
    eta: int
    runs: list[RunObservation] = field(default_factory=list)

    @property
    def mean_seed_count(self) -> float:
        return summarize([r.seed_count for r in self.runs]).mean

    @property
    def mean_spread(self) -> float:
        return summarize([r.spread for r in self.runs]).mean

    @property
    def mean_seconds(self) -> float:
        return summarize([r.seconds for r in self.runs]).mean

    @property
    def feasibility_rate(self) -> float:
        """Fraction of realizations on which ``eta`` was actually reached."""
        return sum(r.achieved for r in self.runs) / len(self.runs)

    @property
    def always_feasible(self) -> bool:
        return all(r.achieved for r in self.runs)


def build_algorithm(
    label: str,
    model: DiffusionModel,
    epsilon: float,
    max_samples: Optional[int],
    context: Optional[ExecutionContext] = None,
):
    """Instantiate a roster entry from its label.

    The entry consumes the engine policy from ``context`` (``None`` means
    ``ExecutionContext()``).  Only the CELF entry sees the context's
    parallel runtime (its CRN sweeps are worker-count invariant); the
    adaptive entries and ATEUC parallelize at the realization level
    instead, so handing their pool growth a runtime here would change their
    sampling streams relative to a ``jobs=1`` run — they receive
    ``context.sequential()``.
    """
    if context is None:
        context = ExecutionContext()
    sequential = context.sequential()
    if label == "ASTI":
        return ASTI(
            model,
            epsilon=epsilon,
            batch_size=1,
            max_samples=max_samples,
            context=sequential,
        )
    if label.startswith("ASTI-"):
        batch = int(label.split("-", 1)[1])
        return ASTI(
            model,
            epsilon=epsilon,
            batch_size=batch,
            max_samples=max_samples,
            context=sequential,
        )
    if label == "AdaptIM":
        return AdaptIM(
            model,
            epsilon=epsilon,
            max_samples=max_samples,
            context=sequential,
        )
    if label == "ATEUC":
        return ATEUC(model, context=sequential)
    if label == "CELF":
        return CELFMinimizer(
            model,
            samples=CELF_HARNESS_SAMPLES,
            context=context,
        )
    raise ConfigurationError(f"unknown algorithm label {label!r}")


def sample_shared_realizations(
    graph: DiGraph,
    model: DiffusionModel,
    count: int,
    seed: int,
    context: Optional[ExecutionContext] = None,
) -> list[Realization]:
    """The shared ground-truth worlds every algorithm is scored against.

    With a ``context`` carrying a :class:`~repro.store.PoolStore`, the
    stacked worlds are cached on disk keyed by (graph fingerprint, model,
    count, seed) — each stream is freshly spawned from ``seed``, so the
    integer seed *is* the complete randomness recipe and a hit reconstructs
    the exact realization objects.
    """
    store = context.pool_store if context is not None else None
    store_key = None
    if store is not None:
        from repro.store import artifact_key, graph_fingerprint, model_key

        store_key = artifact_key(
            "worlds",
            {
                "graph": graph_fingerprint(graph),
                "model": model_key(model),
                "count": int(count),
                "seed": int(seed),
            },
        )
        cached = store.load(store_key)
        if cached is not None:
            arrays, meta = cached
            world_type = {"ic": ICRealization, "lt": LTRealization}.get(
                meta.get("world_kind")
            )
            worlds = arrays.get("worlds")
            if world_type is not None and worlds is not None and len(worlds) == count:
                context.tally("pool_store_world_hits")
                return [world_type(graph, row) for row in worlds]
    streams = spawn_generators(seed, count)
    realizations = [model.sample_realization(graph, rng) for rng in streams]
    if store_key is not None and realizations:
        kind, worlds = stack_worlds(realizations)
        store.save(
            store_key,
            {"worlds": worlds.reshape(len(realizations), -1)},
            {"world_kind": kind},
        )
    return realizations


def run_eta_point(
    graph: DiGraph,
    model: DiffusionModel,
    eta: int,
    algorithms: Sequence[str],
    realizations: list[Realization],
    epsilon: float = 0.5,
    max_samples: Optional[int] = None,
    seed: int = 0,
    context: Optional[ExecutionContext] = None,
) -> dict[str, "AlgorithmOutcome"]:
    """Compare ``algorithms`` at a single threshold ``eta``.

    The engine policy comes from ``context`` (``None`` means
    ``ExecutionContext()``).  With a multi-worker runtime on the context,
    each adaptive algorithm's independent realizations run as contiguous
    shards on the worker pool; results are bit-identical to running
    without one.
    """
    if context is None:
        context = ExecutionContext()
    outcomes: dict[str, AlgorithmOutcome] = {}
    for label in algorithms:
        spec = dict(
            label=label,
            model=model,
            epsilon=epsilon,
            max_samples=max_samples,
        )
        outcome = AlgorithmOutcome(algorithm=label, eta=eta)
        if label in NON_ADAPTIVE_ALGORITHMS:
            algorithm = build_algorithm(**spec, context=context)
            _run_non_adaptive(
                algorithm, graph, eta, realizations, seed, outcome,
                context.kernel_backend,
            )
        else:
            # Worker shards rebuild the algorithm from the spec, so the
            # pickled context must already be the runtime-free sequential
            # one (a context never ships its runtime across processes).
            spec["context"] = context.sequential()
            _run_adaptive(
                spec, graph, eta, realizations, seed, outcome, context.runtime
            )
        outcomes[label] = outcome
    return outcomes


def _shards(count: int, shard_count: int) -> list[np.ndarray]:
    """Contiguous realization-index blocks, one per dispatched task."""
    return np.array_split(np.arange(count), min(shard_count, count))


def _use_workers(runtime, realizations) -> bool:
    return (
        runtime is not None
        and runtime.parallel
        and len(realizations) > 1
        and realizations_shareable(realizations)
    )


def _run_adaptive(
    spec, graph, eta, realizations, seed, outcome, runtime=None
) -> None:
    # Each realization gets an independent sampling stream derived from the
    # harness seed, so reruns are bit-identical — identical between the
    # batched engine and the sequential fallback (which consume the same
    # per-session streams in the same per-session order), and identical
    # across worker counts (shard boundaries never move a session's stream).
    seqs = spawn_seed_sequences(seed + 1, len(realizations))
    if _use_workers(runtime, realizations):
        from repro.parallel.tasks import worker_adaptive_shard

        graph_handle = runtime.publish_graph(graph)
        worlds_handle = runtime.publish_realizations(realizations)
        shard_results = runtime.map_ordered(
            worker_adaptive_shard,
            [
                (
                    graph_handle,
                    worlds_handle,
                    shard.tolist(),
                    spec,
                    eta,
                    [seqs[i] for i in shard],
                )
                for shard in _shards(len(realizations), runtime.jobs)
            ],
        )
        rows = [row for shard in shard_results for row in shard]
    else:
        from repro.parallel.tasks import adaptive_shard

        rows = adaptive_shard(graph, realizations, spec, eta, seqs)
    for index, (seed_count, spread, seconds, marginals) in enumerate(rows):
        outcome.runs.append(
            RunObservation(
                realization_index=index,
                seed_count=seed_count,
                spread=spread,
                achieved=spread >= eta,
                seconds=seconds,
                marginal_spreads=marginals,
            )
        )


def _run_non_adaptive(
    algorithm, graph, eta, realizations, seed, outcome, kernel="auto"
) -> None:
    # One selection, scored on every world by one in-process replay.
    result = algorithm.run(graph, eta, seed=seed + 2)
    spreads = batch_reachable_from(
        realizations, [result.seeds] * len(realizations), kernel=kernel
    ).sum(axis=1)
    for index, spread in enumerate(spreads.tolist()):
        outcome.runs.append(
            RunObservation(
                realization_index=index,
                seed_count=result.seed_count,
                spread=spread,
                achieved=spread >= eta,
                seconds=result.seconds,
            )
        )


@dataclass
class SweepResult:
    """A full threshold sweep: ``outcomes[eta][algorithm]``."""

    config: ExperimentConfig
    eta_values: tuple[int, ...]
    outcomes: dict[int, dict[str, AlgorithmOutcome]]

    def series(self, algorithm: str, metric: str) -> list[float]:
        """Extract a per-threshold series for one algorithm.

        ``metric`` is one of ``"seeds"``, ``"seconds"``, ``"spread"``,
        ``"feasibility"`` — matching Figures 4/5, 6/7, 9, and Table 3's
        N/A marks respectively.
        """
        getter = {
            "seeds": lambda o: o.mean_seed_count,
            "seconds": lambda o: o.mean_seconds,
            "spread": lambda o: o.mean_spread,
            "feasibility": lambda o: o.feasibility_rate,
        }
        try:
            extract = getter[metric]
        except KeyError:
            raise ConfigurationError(
                f"unknown metric {metric!r}; expected one of {sorted(getter)}"
            ) from None
        return [extract(self.outcomes[eta][algorithm]) for eta in self.eta_values]


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full paper-style sweep described by ``config``.

    ``config.to_context()`` is the single source of truth for engine
    policy: one :class:`~repro.runtime.context.ExecutionContext` is built
    here, owns the sweep's parallel runtime (worker processes spawn once
    for every eta point, the graph maps into shared memory once), records
    the graph's storage decision in its diagnostics, and is closed when
    the sweep finishes.  The sweep's numbers are bit-identical for any
    ``jobs`` value.
    """
    kernel_baseline = snapshot_stats()
    model = config.make_model()
    outcomes: dict[int, dict[str, AlgorithmOutcome]] = {}
    # The graph is built before the context so ``plan="auto"`` configs can
    # hand its statistics to the execution planner.
    graph = config.build_graph()
    with config.to_context(graph=graph) as context:
        context.note_graph(graph)
        realizations = sample_shared_realizations(
            graph, model, config.realizations, seed=config.seed + 10,
            context=context,
        )
        eta_values = config.eta_values(graph.n)
        for eta in eta_values:
            outcomes[eta] = run_eta_point(
                graph,
                model,
                eta,
                config.algorithms,
                realizations,
                epsilon=config.epsilon,
                max_samples=config.max_samples,
                seed=config.seed,
                context=context,
            )
        # Snapshot the kernel decisions (backend resolutions, per-driver
        # call counts, JIT time) after the last eta point, counted from the
        # sweep's entry, so the diagnostics describe this whole run and no
        # earlier one in the process, next to note_graph above.
        context.note_kernels(since=kernel_baseline)
        # And the supervisor's recovery activity: a sweep that survived
        # worker crashes reports the same results as a clean one, so the
        # fault_* counters are the only place the recovery shows.
        context.note_faults()
        # And the persistent store's hit/miss/eviction activity: a warm
        # run is bit-identical to a cold one, so these counters are the
        # only place the reuse shows.
        context.note_store()
    return SweepResult(config=config, eta_values=eta_values, outcomes=outcomes)
