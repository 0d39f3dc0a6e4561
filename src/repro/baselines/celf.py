"""CELF: lazy-greedy Monte-Carlo influence maximization (Leskovec 2007).

The classic pre-RR-set algorithm, included as the historical reference
implementation the RR-based stack is measured against (the paper's related
work, Section 5, traces the lineage from the Kempe et al. greedy through
CELF to reverse influence sampling).

Two entry points:

* :func:`celf_influence_maximization` — pick ``k`` seeds maximizing the
  Monte-Carlo estimated spread with lazy marginal-gain re-evaluation;
* :func:`celf_seed_minimization` — keep adding CELF seeds until the
  estimated spread reaches ``eta`` (a simple non-adaptive seed-minimization
  baseline that is *much* slower than ATEUC but needs no sampling theory).

Lazy evaluation exploits submodularity: a node's marginal gain can only
shrink as the seed set grows, so a stale upper bound that is already below
the current best pick can be skipped without re-simulation.

Spread estimation runs on the common-random-numbers evaluator: one shared
batch of ``samples`` realizations is drawn up front, the ``n``-singleton
initial pass is a handful of batched labeled forward sweeps, and every lazy
re-evaluation scores against the *same* worlds — so gain comparisons in the
queue see identical noise and a run is a deterministic function of
``(graph, model, samples, seed)``.  The historical fresh-noise variant, one
independent Monte-Carlo estimate per evaluation, is the benchmark oracle
:func:`repro.testing.reference.fresh_noise_celf`; it drives the same lazy
queue (:func:`_run_celf`) with other spread callables.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

from repro.diffusion.base import DiffusionModel
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.utils.rng import RandomSource, as_generator
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class CelfResult:
    """Outcome of a CELF run."""

    seeds: list[int]
    estimated_spread: float
    simulations_run: int
    lazy_skips: int          # re-evaluations avoided by lazy evaluation

    @property
    def seed_count(self) -> int:
        return len(self.seeds)


class _LazyQueue:
    """Max-heap of (stale gain, node, round stamp) entries."""

    def __init__(self) -> None:
        self._heap: list = []

    def push(self, gain: float, node: int, stamp: int) -> None:
        heapq.heappush(self._heap, (-gain, node, stamp))

    def pop(self):
        gain, node, stamp = heapq.heappop(self._heap)
        return -gain, node, stamp

    def __len__(self) -> int:
        return len(self._heap)


def _run_celf(
    spread_of: Callable[[list[int]], float],
    singleton_spreads: Callable[[], Sequence[float]],
    samples: int,
    max_seeds: int,
    stop_at_spread: Optional[float],
) -> CelfResult:
    """The lazy-greedy queue over two spread estimators.

    ``singleton_spreads()`` scores every node alone (the initial pass);
    ``spread_of(seeds)`` scores one seed set.  Each estimate costs
    ``samples`` cascades, which is what ``simulations_run`` counts.
    """
    queue = _LazyQueue()
    seeds: list[int] = []
    current_spread = 0.0
    skips = 0

    initial = singleton_spreads()
    simulations = samples * len(initial)
    for v, spread in enumerate(initial):
        queue.push(float(spread), v, 0)

    while len(seeds) < max_seeds and len(queue):
        gain, node, stamp = queue.pop()
        if stamp == len(seeds):
            # Fresh evaluation for the current seed set: commit the pick.
            seeds.append(node)
            current_spread += gain
            skips += len(queue)  # everything left was never re-evaluated
            if stop_at_spread is not None and current_spread >= stop_at_spread:
                break
        else:
            # Stale: re-evaluate against the current seed set, re-queue.
            simulations += samples
            fresh_gain = max(0.0, spread_of(seeds + [node]) - current_spread)
            queue.push(fresh_gain, node, len(seeds))
    return CelfResult(
        seeds=seeds,
        estimated_spread=current_spread,
        simulations_run=simulations,
        lazy_skips=skips,
    )


def _crn_celf(
    graph: DiGraph,
    model: DiffusionModel,
    samples: int,
    seed: RandomSource,
    max_seeds: int,
    stop_at_spread: Optional[float],
    context: Optional[ExecutionContext],
) -> CelfResult:
    evaluator = CRNSpreadEvaluator(
        graph, model, n_sims=samples, seed=as_generator(seed), context=context
    )
    # Release the evaluator's shared-memory worlds (if a runtime published
    # them) as soon as the selection loop is done.
    with evaluator:
        return _run_celf(
            evaluator.evaluate,
            lambda: evaluator.evaluate_many([[v] for v in range(graph.n)]),
            samples,
            max_seeds,
            stop_at_spread,
        )


def celf_influence_maximization(
    graph: DiGraph,
    model: DiffusionModel,
    k: int,
    samples: int = 200,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> CelfResult:
    """Select ``k`` seeds by lazy greedy over Monte-Carlo spreads.

    Two runs with the same integer ``seed`` return identical seed sets (the
    estimator noise is pinned up front).  ``context`` supplies the engine
    policy: ``mc_batch_size`` bounds the cascades per vectorized engine
    call, and the parallel runtime shards the CRN sweeps across worker
    processes without changing any estimate (evaluation replays
    pre-sampled noise).
    """
    check_positive_int(k, "k")
    check_positive_int(samples, "samples")
    if k > graph.n:
        raise ConfigurationError(f"k={k} exceeds node count {graph.n}")
    return _crn_celf(
        graph, model, samples, seed, k, stop_at_spread=None, context=context
    )


def celf_seed_minimization(
    graph: DiGraph,
    model: DiffusionModel,
    eta: int,
    samples: int = 200,
    seed: RandomSource = None,
    context: Optional[ExecutionContext] = None,
) -> CelfResult:
    """Add lazy-greedy seeds until the estimated spread reaches ``eta``.

    Non-adaptive, like ATEUC, but estimator-agnostic and therefore a good
    cross-check: on graphs where both run, their seed counts should agree
    within estimation noise.  ``context`` supplies the engine policy (see
    :func:`celf_influence_maximization`).
    """
    check_positive_int(eta, "eta")
    check_positive_int(samples, "samples")
    if eta > graph.n:
        raise ConfigurationError(f"eta={eta} exceeds node count {graph.n}")
    return _crn_celf(
        graph, model, samples, seed, graph.n, float(eta), context=context
    )


@dataclass(frozen=True)
class CelfMinimizationRun:
    """Harness-facing outcome of a timed CELF seed-minimization run.

    Mirrors the fields the experiment harness reads off
    :class:`~repro.baselines.ateuc.NonAdaptiveRunResult`; like ATEUC,
    feasibility on a concrete realization is not guaranteed.
    """

    policy_name: str
    eta: int
    seeds: list[int]
    estimated_spread: float
    simulations_run: int
    seconds: float

    @property
    def seed_count(self) -> int:
        return len(self.seeds)


class CELFMinimizer:
    """Roster adapter: non-adaptive CELF seed minimization for the harness.

    Wraps :func:`celf_seed_minimization` behind the same ``run(graph, eta,
    seed)`` shape as :class:`~repro.baselines.ateuc.ATEUC`, so sweeps can
    put the historical Monte-Carlo baseline next to the RR-based roster.
    ``context`` (``None`` means ``ExecutionContext()``) supplies the CRN
    evaluator's policy; the harness passes the sweep's, whose runtime it
    owns.  CRN evaluation is bit-identical with or without a runtime.
    """

    name = "CELF"

    def __init__(
        self,
        model: DiffusionModel,
        samples: int = 200,
        context: Optional[ExecutionContext] = None,
    ):
        check_positive_int(samples, "samples")
        self.context = context if context is not None else ExecutionContext()
        self.model = model
        self.samples = samples

    def run(
        self, graph: DiGraph, eta: int, seed: RandomSource = None
    ) -> CelfMinimizationRun:
        timer = Stopwatch()
        with timer:
            result = celf_seed_minimization(
                graph,
                self.model,
                eta,
                samples=self.samples,
                seed=seed,
                context=self.context,
            )
        return CelfMinimizationRun(
            policy_name=self.name,
            eta=eta,
            seeds=result.seeds,
            estimated_spread=result.estimated_spread,
            simulations_run=result.simulations_run,
            seconds=timer.elapsed,
        )
