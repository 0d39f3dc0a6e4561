"""Tests for the shared-memory parallel runtime.

Three concerns:

* unit behavior: jobs validation, shared-memory round-trips of graphs and
  realization batches, runtime lifecycle;
* **worker-count invariance** (the load-bearing determinism contract):
  (m)RR pools, CRN spread estimates, adaptive-run seed counts, and harness
  outcomes must be bit-identical between ``jobs=1`` (in-process chunks)
  and any multi-worker run under a fixed seed;
* end-to-end knobs: ``ExperimentConfig.jobs``, ``ExecutionContext(jobs=...)``,
  and the CLI ``--jobs`` flags reject non-positive values with a clean
  error.
"""

import numpy as np
import pytest

from repro.baselines.celf import CELFMinimizer
from repro.core.asti import ASTI
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import CRNSpreadEvaluator, estimate_spreads_many
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.harness import (
    build_algorithm,
    run_eta_point,
    sample_shared_realizations,
)
from repro.graph import generators, weighting
from repro.parallel import ParallelRuntime
from repro.runtime.context import ExecutionContext
from repro.parallel.shm import (
    graph_from_handle,
    realizations_from_handle,
    realizations_shareable,
    share_graph,
    share_realizations,
)
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler, rr_batch_sampler
from repro.sampling.mrr import RootCountRule, estimate_truncated_spread_mrr
from repro.testing.reference import reachable_from


@pytest.fixture(scope="module")
def bench_graph():
    topology = generators.preferential_attachment(220, 3, seed=11, directed=False)
    return weighting.weighted_cascade(topology)


def _on(runtime, **knobs) -> ExecutionContext:
    """A context lent ``runtime`` (the caller keeps closing it)."""
    return ExecutionContext(**knobs).attach_runtime(runtime)


def _mrr_pool(graph, jobs, seed=42, sets=300, batch_size=64):
    rule = RootCountRule.for_target(graph.n, max(1, graph.n // 10))
    with ParallelRuntime(jobs) as runtime:
        engine = mrr_batch_sampler(
            graph,
            IndependentCascade(),
            rule,
            seed=seed,
            context=_on(runtime, sample_batch_size=batch_size),
        )
        index = CoverageIndex(graph.n)
        counts_a = engine.fill(index, sets // 2)       # sliced fills must not
        counts_b = engine.grow_to(index, sets)         # shift chunk seeding
        members, indptr = index.packed()
        return (
            members.copy(),
            indptr.copy(),
            np.concatenate([counts_a, counts_b]),
        )


class TestRuntimeBasics:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ConfigurationError):
            ParallelRuntime(jobs)

    def test_jobs_one_never_spawns(self, bench_graph):
        runtime = ParallelRuntime(1)
        assert not runtime.parallel
        assert runtime._state["executor"] is None
        engine = rr_batch_sampler(
            bench_graph, IndependentCascade(), seed=1, context=_on(runtime)
        )
        engine.fill(CoverageIndex(bench_graph.n), 50)
        assert runtime._state["executor"] is None  # chunks ran in-process
        runtime.close()

    def test_close_is_idempotent_and_blocks_dispatch(self):
        runtime = ParallelRuntime(2)
        runtime.close()
        runtime.close()
        with pytest.raises(ConfigurationError):
            runtime._executor()

    def test_publish_after_close_raises_cleanly(self, bench_graph):
        runtime = ParallelRuntime(1)
        realizations = sample_shared_realizations(
            bench_graph, IndependentCascade(), 2, seed=1
        )
        runtime.close()
        with pytest.raises(ConfigurationError, match="closed"):
            runtime.publish_graph(bench_graph)
        with pytest.raises(ConfigurationError, match="closed"):
            runtime.publish_realizations(realizations)
        with pytest.raises(ConfigurationError, match="closed"):
            runtime.publish_arrays({"x": np.zeros(4)})

    def test_publish_realizations_cached_per_batch(self, bench_graph):
        realizations = sample_shared_realizations(
            bench_graph, IndependentCascade(), 3, seed=2
        )
        with ParallelRuntime(1) as runtime:
            first = runtime.publish_realizations(realizations)
            second = runtime.publish_realizations(realizations)
            assert first is second
            assert len(runtime._state["bundles"]) == 1

    def test_context_manager(self, bench_graph):
        with ParallelRuntime(1) as runtime:
            handle = runtime.publish_graph(bench_graph)
            assert handle.n == bench_graph.n


class TestSharedMemoryRoundTrips:
    def test_graph_round_trip(self, bench_graph):
        bundle, handle = share_graph(bench_graph)
        try:
            rebuilt = graph_from_handle(handle)
            assert rebuilt == bench_graph
            assert rebuilt.m == bench_graph.m
        finally:
            bundle.close()

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_realizations_round_trip(self, bench_graph, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        realizations = sample_shared_realizations(bench_graph, model, 4, seed=3)
        assert realizations_shareable(realizations)
        bundle, handle = share_realizations(realizations)
        try:
            rebuilt = realizations_from_handle(bench_graph, handle, [0, 2])
            for phi, index in zip(rebuilt, [0, 2]):
                assert phi.spread([0, 1, 5]) == realizations[index].spread([0, 1, 5])
        finally:
            bundle.close()

    def test_mixed_realizations_not_shareable(self, bench_graph):
        ic = IndependentCascade().sample_realization(bench_graph, 0)
        lt = LinearThreshold().sample_realization(bench_graph, 0)
        assert not realizations_shareable([ic, lt])
        assert not realizations_shareable([])

    def test_publish_graph_cached_per_object(self, bench_graph):
        with ParallelRuntime(1) as runtime:
            first = runtime.publish_graph(bench_graph)
            second = runtime.publish_graph(bench_graph)
            assert first is second


class TestWorkerCountInvariance:
    """jobs=1 vs jobs=N bit-identity under a fixed seed."""

    def test_mrr_pools_bit_identical(self, bench_graph):
        members1, indptr1, counts1 = _mrr_pool(bench_graph, jobs=1)
        members4, indptr4, counts4 = _mrr_pool(bench_graph, jobs=4)
        assert np.array_equal(members1, members4)
        assert np.array_equal(indptr1, indptr4)
        assert np.array_equal(counts1, counts4)

    def test_rr_pools_bit_identical(self, bench_graph):
        def pool(jobs):
            with ParallelRuntime(jobs) as runtime:
                engine = rr_batch_sampler(
                    bench_graph,
                    LinearThreshold(),
                    seed=7,
                    context=_on(runtime, sample_batch_size=50),
                )
                index = CoverageIndex(bench_graph.n)
                engine.fill(index, 180)
                members, indptr = index.packed()
                return members.copy(), indptr.copy()

        members1, indptr1 = pool(1)
        members2, indptr2 = pool(2)
        assert np.array_equal(members1, members2)
        assert np.array_equal(indptr1, indptr2)

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_crn_estimates_bit_identical(
        self, bench_graph, model_fixture, request
    ):
        model = request.getfixturevalue(model_fixture)
        candidates = [[v] for v in range(25)] + [[0, 3, 9]]
        kwargs = dict(n_sims=30, seed=5)
        legacy = estimate_spreads_many(
            bench_graph, model, candidates,
            context=ExecutionContext(mc_batch_size=16), **kwargs,
        )
        with ParallelRuntime(1) as rt1:
            inproc = estimate_spreads_many(
                bench_graph, model, candidates,
                context=_on(rt1, mc_batch_size=16), **kwargs,
            )
        with ParallelRuntime(3) as rt3:
            sharded = estimate_spreads_many(
                bench_graph, model, candidates,
                context=_on(rt3, mc_batch_size=16), **kwargs,
            )
        # CRN evaluation replays pre-sampled noise, so even the
        # runtime-free path must agree exactly.
        assert np.array_equal(legacy, inproc)
        assert np.array_equal(inproc, sharded)

    def test_crn_truncated_estimates_bit_identical(self, bench_graph):
        candidates = [[v] for v in range(10)]
        with ParallelRuntime(2) as runtime:
            evaluator = CRNSpreadEvaluator(
                bench_graph,
                IndependentCascade(),
                n_sims=20,
                seed=8,
                context=_on(runtime, mc_batch_size=8),
            )
            sharded = evaluator.evaluate_many(candidates, eta=15)
        reference = CRNSpreadEvaluator(
            bench_graph, IndependentCascade(), n_sims=20, seed=8,
            context=ExecutionContext(mc_batch_size=8),
        ).evaluate_many(candidates, eta=15)
        assert np.array_equal(reference, sharded)

    def test_asti_jobs_invariant_run(self, bench_graph):
        def solve(jobs):
            with ExecutionContext(jobs=jobs) as context:
                return ASTI(
                    IndependentCascade(), max_samples=4000, context=context
                ).run(bench_graph, eta=20, seed=9)

        first = solve(1)
        second = solve(2)
        assert first.seeds == second.seeds
        assert first.spread == second.spread
        assert [r.samples_generated for r in first.rounds] == [
            r.samples_generated for r in second.rounds
        ]

    def test_estimate_mrr_jobs_invariant(self, bench_graph):
        def estimate(jobs):
            with ExecutionContext(sample_batch_size=64, jobs=jobs) as context:
                return estimate_truncated_spread_mrr(
                    bench_graph, IndependentCascade(), [0, 1],
                    eta=20, theta=400, seed=3, context=context,
                )

        assert estimate(1) == estimate(2)


class TestHarnessInvariance:
    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_eta_point_bit_identical(self, bench_graph, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        realizations = sample_shared_realizations(bench_graph, model, 3, seed=13)
        labels = ("ASTI", "ATEUC", "CELF")

        def outcomes(context):
            return run_eta_point(
                bench_graph,
                model,
                eta=15,
                algorithms=labels,
                realizations=realizations,
                max_samples=4000,
                seed=2,
                context=context,
            )

        base = outcomes(None)
        with ParallelRuntime(2) as runtime:
            sharded = outcomes(_on(runtime))
        for label in labels:
            reference = [
                (r.seed_count, r.spread, r.achieved, r.marginal_spreads)
                for r in base[label].runs
            ]
            parallel = [
                (r.seed_count, r.spread, r.achieved, r.marginal_spreads)
                for r in sharded[label].runs
            ]
            assert reference == parallel, label
        # Both runtimes score non-adaptive sets by the same in-process
        # replay, so pin that replay to one BFS per world.
        for label in ("ATEUC", "CELF"):
            seeds = build_algorithm(label, model, 0.5, 4000).run(
                bench_graph, 15, seed=4
            ).seeds
            for run, phi in zip(base[label].runs, realizations):
                assert run.spread == reachable_from(phi, seeds).sum()

    def test_config_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="nethept-sim", jobs=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="nethept-sim", jobs=-2)
        assert quick_config().scaled(jobs=2).jobs == 2

    def test_celf_minimizer_runs_on_the_context_runtime(self, bench_graph):
        with ExecutionContext(jobs=1) as context:
            minimizer = CELFMinimizer(
                IndependentCascade(), samples=10, context=context
            )
            assert context.runtime is not None
            assert not context.runtime.parallel
            result = minimizer.run(bench_graph, eta=10, seed=4)
        assert context.runtime is None  # its builder released it
        reference = CELFMinimizer(IndependentCascade(), samples=10).run(
            bench_graph, eta=10, seed=4
        )
        assert result.seeds == reference.seeds

    def test_celf_minimizer_leaves_shared_runtime_open(self, bench_graph):
        with ParallelRuntime(1) as runtime:
            context = _on(runtime)
            minimizer = CELFMinimizer(
                IndependentCascade(), samples=10, context=context
            )
            minimizer.run(bench_graph, eta=10, seed=4)
            context.close()  # not the owner: must leave the runtime alone
            assert context.runtime is runtime
            runtime.publish_graph(bench_graph)  # still usable


class TestLifecycleEdges:
    def test_map_ordered_after_close_raises_on_every_route(self):
        # The jobs=1 branch used to skip the closed check and silently run
        # the chunks in-process; both routes must refuse identically.
        sequential = ParallelRuntime(1)
        sequential.close()
        with pytest.raises(ConfigurationError, match="closed"):
            sequential.map_ordered(len, [((1, 2),)])
        parallel = ParallelRuntime(2)
        parallel.close()
        with pytest.raises(ConfigurationError, match="closed"):
            parallel.map_ordered(len, [((1, 2),)])

    def test_double_close_after_dispatch_is_idempotent(self):
        from repro.testing.faults import echo_chunk

        runtime = ParallelRuntime(2)
        runtime.map_ordered(echo_chunk, [(0,)])  # pool actually spun up
        runtime.close()
        runtime.close()

    @pytest.mark.skipif(
        not __import__("os").path.isdir("/dev/shm"),
        reason="needs a POSIX shm filesystem",
    )
    def test_finalizer_unlinks_segments_at_gc(self, bench_graph):
        import gc
        import os

        runtime = ParallelRuntime(2)
        name = runtime.publish_graph(bench_graph).arrays.shm_name
        assert os.path.exists(os.path.join("/dev/shm", name))
        del runtime  # no close(): the weakref finalizer must clean up
        gc.collect()
        assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_keyboard_interrupt_mid_dispatch_leaves_no_segments(
        self, bench_graph
    ):
        from repro.testing.faults import interrupt_chunk

        runtime = ParallelRuntime(2)
        runtime.publish_graph(bench_graph)
        bundle = next(iter(runtime._state["bundles"].values()))
        with pytest.raises(KeyboardInterrupt):
            runtime.map_ordered(interrupt_chunk, [(0,), (1,)])
        runtime.close()  # the interrupt handler's cleanup path
        assert not bundle.segment_exists()
        assert runtime._state["bundles"] == {}


class TestResourceRelease:
    def test_evaluator_close_releases_worlds_segment(self, bench_graph):
        candidates = [[v] for v in range(20)]
        with ParallelRuntime(2) as runtime:
            evaluator = CRNSpreadEvaluator(
                bench_graph,
                IndependentCascade(),
                n_sims=20,
                seed=6,
                context=_on(runtime, mc_batch_size=8),
            )
            sharded = evaluator.evaluate_many(candidates)
            assert evaluator._worlds_handle is not None
            published = len(runtime._state["bundles"])
            evaluator.close()
            assert len(runtime._state["bundles"]) == published - 1
            evaluator.close()  # idempotent
            # A closed evaluator still evaluates — in-process — and must
            # agree exactly (the worlds live in the evaluator itself).
            assert np.array_equal(sharded, evaluator.evaluate_many(candidates))

    def test_celf_run_releases_worlds_each_selection(self, bench_graph):
        with ParallelRuntime(2) as runtime:
            minimizer = CELFMinimizer(
                IndependentCascade(), samples=20,
                context=_on(runtime, mc_batch_size=8),
            )
            graph_segments = len(runtime._state["bundles"])
            for _ in range(3):
                minimizer.run(bench_graph, eta=10, seed=4)
            # Only the cached graph segment may persist across runs; each
            # selection's worlds segment is released by _run_celf.
            assert len(runtime._state["bundles"]) <= graph_segments + 1
