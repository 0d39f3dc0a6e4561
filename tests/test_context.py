"""ExecutionContext: propagation, ownership, lifecycle.

The contract of the unified context:

* a default context reaches every engine untouched;
* an explicit context sets the policy end to end, and it is the only way
  to set it — no facade or engine takes a per-call knob;
* whoever builds a context closes it; facades never close one;
* the engine-knob validators are shared, so every layer rejects a bad
  value with the identical message.
"""

from __future__ import annotations

import pickle

import pytest

from repro import ASTI, ExecutionContext, IndependentCascade
from repro.baselines.adaptim import AdaptIM
from repro.baselines.ateuc import ATEUC
from repro.baselines.celf import CELFMinimizer
from repro.diffusion.montecarlo import (
    DEFAULT_MC_BATCH_SIZE,
    CRNSpreadEvaluator,
    estimate_truncated_spread,
)
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.harness import build_algorithm, run_eta_point, run_sweep
from repro.parallel.runtime import ParallelRuntime
from repro.runtime.context import DEFAULT_BATCH_SIZE
from repro.sampling.mrr import estimate_truncated_spread_mrr
from repro.utils.rng import spawn_generators


@pytest.fixture
def model():
    return IndependentCascade()


class TestDefaults:
    def test_default_context_fields(self):
        ctx = ExecutionContext()
        assert ctx.sample_batch_size == DEFAULT_BATCH_SIZE
        assert ctx.mc_batch_size is None
        assert ctx.mc_tolerance is None
        assert ctx.reuse_pool is True
        assert ctx.jobs is None
        assert ctx.runtime is None  # jobs=None: historical in-process route

    def test_default_context_reaches_every_facade_untouched(self, model):
        for algorithm in (
            ASTI(model),
            AdaptIM(model),
            ATEUC(model),
            CELFMinimizer(model),
        ):
            ctx = algorithm.context
            assert ctx.sample_batch_size == DEFAULT_BATCH_SIZE
            assert ctx.jobs is None
            assert ctx.reuse_pool is True

    def test_facade_shares_one_context_with_its_selector(self, model):
        asti = ASTI(model)
        assert asti.selector.context is asti.context
        asti_b = ASTI(model, batch_size=4)
        assert asti_b.selector.context is asti_b.context
        adaptim = AdaptIM(model)
        assert adaptim.selector.context is adaptim.context


class TestExplicitOverride:
    def test_explicit_context_overrides_end_to_end(self, model):
        ctx = ExecutionContext(
            sample_batch_size=32,
            mc_batch_size=16,
            reuse_pool=False,
        )
        asti = ASTI(model, max_samples=5000, context=ctx)
        assert asti.context is ctx
        assert asti.selector.context is ctx
        assert asti.selector.max_samples == 5000  # an algorithm argument
        assert CELFMinimizer(model, context=ctx).context is ctx
        assert ATEUC(model, context=ctx).context is ctx

    def test_facades_never_close_the_context(self, model):
        for facade in (ASTI, AdaptIM, ATEUC, CELFMinimizer):
            assert not hasattr(facade, "close")
            assert not hasattr(facade, "__exit__")

    def test_build_algorithm_threads_context(self, model):
        ctx = ExecutionContext(sample_batch_size=48, jobs=1)
        for label in ("ASTI", "ASTI-4", "AdaptIM", "ATEUC"):
            algorithm = build_algorithm(label, model, 0.5, 1000, context=ctx)
            # Adaptive entries and ATEUC get the sequential derivation: the
            # harness parallelizes them at the realization level, so their
            # pool growth must keep the historical in-process stream.
            assert algorithm.context.sample_batch_size == 48
            assert algorithm.context.jobs is None
        celf = build_algorithm("CELF", model, 0.5, None, context=ctx)
        assert celf.context is ctx  # only CELF sees the runtime
        ctx.close()

    def test_config_to_context_is_single_source_of_truth(self):
        config = quick_config().scaled(
            sample_batch_size=96,
            mc_batch_size=7,
            mc_tolerance=2.5,
            reuse_pool=False,
            jobs=2,
        )
        ctx = config.to_context()
        assert ctx.sample_batch_size == 96
        assert ctx.mc_batch_size == 7
        assert ctx.mc_tolerance == 2.5
        assert ctx.reuse_pool is False
        assert ctx.jobs == 2
        ctx.close()

    def test_mc_tolerance_defaults_the_estimator_early_stop(self, small_social, model):
        loose = ExecutionContext(mc_tolerance=1000.0)
        estimate = estimate_truncated_spread(
            small_social, model, [0], eta=30, samples=2000, seed=3, context=loose
        )
        # A huge tolerance stops after the first chunk.
        assert estimate.samples == DEFAULT_MC_BATCH_SIZE

    def test_sweep_records_graph_storage_decision(self):
        config = quick_config(
            graph_n=120,
            realizations=2,
            algorithms=("ASTI",),
            eta_fractions=(0.1,),
            max_samples=4000,
        )
        diagnostics = run_sweep(config).diagnostics
        assert diagnostics["graph_storage"] == "adaptive"
        assert diagnostics["graph_index_dtype"] == "int32"
        assert "graph_csr_nbytes" in diagnostics

    def test_pool_tallies_land_in_diagnostics(self, small_social_damped, model):
        ctx = ExecutionContext()
        ASTI(model, max_samples=4000, context=ctx).run(
            small_social_damped, eta=15, seed=4
        )
        assert ctx.diagnostics["mrr_pools_built"] >= 1
        assert "mrr_sets_carried" in ctx.diagnostics  # reuse_pool default on
        ctx.close()


class TestLegacyEquivalence:
    """The removed per-knob route, pinned.

    The per-call knobs (``sample_batch_size=``, ``jobs=``, ``mc_batch_size=``
    on facades and engines) are gone; a context setting the same policy
    must reproduce exactly what those knobs produced.  The expected values
    were recorded from the knob route before its removal.
    """

    def test_context_plus_legacy_kwargs_is_an_error(self, model):
        # context= is the only policy route: a per-call knob, with or
        # without a context, is a TypeError.
        ctx = ExecutionContext()
        with pytest.raises(TypeError):
            ASTI(model, sample_batch_size=64, context=ctx)
        with pytest.raises(TypeError):
            CELFMinimizer(model, jobs=2, context=ctx)
        with pytest.raises(TypeError):
            ATEUC(model, runtime=None)

    def test_legacy_asti_bit_identical_seed_sets(self, small_social_damped, model):
        # Was: ASTI(model, sample_batch_size=64, reuse_pool=True).
        result = ASTI(
            model,
            epsilon=0.5,
            context=ExecutionContext(sample_batch_size=64, reuse_pool=True),
        ).run(small_social_damped, eta=20, seed=11)
        assert result.seeds == [4, 0, 12, 3]
        assert result.spread == 28
        assert [r.samples_generated for r in result.rounds] == [
            720, 688, 640, 284
        ]

    def test_legacy_jobs_bit_identical_mrr_pools(self, small_social, model):
        # Was: estimate_truncated_spread_mrr(..., jobs=1).
        with ExecutionContext(jobs=1) as ctx:
            estimate = estimate_truncated_spread_mrr(
                small_social, model, [0, 3], eta=12, theta=600, seed=5,
                context=ctx,
            )
        assert estimate == 11.2

    def test_legacy_crn_estimates_bit_identical(self, small_social, model):
        # Was: CRNSpreadEvaluator(..., mc_batch_size=64).
        estimates = CRNSpreadEvaluator(
            small_social,
            model,
            n_sims=40,
            seed=9,
            context=ExecutionContext(mc_batch_size=64),
        ).evaluate_many([[v] for v in range(12)])
        assert estimates.tolist() == [
            22.925, 17.9, 5.0, 17.95, 24.875, 3.1,
            4.175, 14.4, 2.25, 12.75, 3.0, 6.15,
        ]

    def test_legacy_run_eta_point_bit_identical(self, small_social_damped, model):
        # Was: run_eta_point(..., sample_batch_size=128).
        realizations = [
            model.sample_realization(small_social_damped, rng)
            for rng in spawn_generators(21, 2)
        ]
        outcomes = run_eta_point(
            small_social_damped,
            model,
            10,
            ("ASTI", "ATEUC"),
            realizations,
            max_samples=4000,
            seed=2,
            context=ExecutionContext(sample_batch_size=128),
        )
        assert [(r.seed_count, r.spread) for r in outcomes["ASTI"].runs] == [
            (1, 11), (2, 17)
        ]
        assert [(r.seed_count, r.spread) for r in outcomes["ATEUC"].runs] == [
            (2, 11), (2, 17)
        ]


class TestLifecycle:
    def test_owned_runtime_created_lazily_and_closed(self):
        ctx = ExecutionContext(jobs=1)
        assert ctx._runtime is None  # not created yet
        runtime = ctx.runtime
        assert runtime is not None and runtime.jobs == 1
        assert ctx.runtime is runtime  # cached
        ctx.close()
        assert ctx.runtime is None

    def test_attached_runtime_not_closed(self):
        with ParallelRuntime(1) as runtime:
            ctx = ExecutionContext().attach_runtime(runtime)
            assert ctx.runtime is runtime
            assert ctx.jobs == 1
            ctx.close()
            # Still open: owner closes it.
            runtime._check_open()

    def test_sequential_drops_jobs_but_keeps_policy(self):
        ctx = ExecutionContext(sample_batch_size=17, jobs=4, reuse_pool=False)
        seq = ctx.sequential()
        assert seq.jobs is None
        assert seq.sample_batch_size == 17
        assert seq.reuse_pool is False
        assert ctx.sequential() is not ctx
        no_jobs = ExecutionContext()
        assert no_jobs.sequential() is no_jobs
        ctx.close()

    def test_context_pickles_without_runtime(self):
        ctx = ExecutionContext(sample_batch_size=33, jobs=2)
        _ = ctx.runtime  # force creation
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.sample_batch_size == 33
        assert clone.jobs == 2
        assert clone._runtime is None  # never ships across processes
        ctx.close()

    def test_diagnostics_tally(self):
        ctx = ExecutionContext()
        ctx.telemetry.add("chunks", 3)
        ctx.telemetry.add("chunks", 2)
        ctx.telemetry.set(stage="fill")
        assert ctx.diagnostics["chunks"] == 5
        assert ctx.diagnostics["stage"] == "fill"


class TestSharedValidation:
    """The jobs/batch-size validators live in one place; messages match."""

    def test_jobs_message_identical_across_layers(self):
        expected = "jobs must be >= 1, got 0"
        with pytest.raises(ConfigurationError, match=expected):
            ExecutionContext(jobs=0)
        with pytest.raises(ConfigurationError, match=expected):
            ExperimentConfig(dataset="nethept-sim", jobs=0)
        with pytest.raises(ConfigurationError, match=expected):
            ParallelRuntime(0)

    def test_sample_batch_size_message_identical_across_layers(self):
        expected = "sample_batch_size must be >= 1, got 0"
        with pytest.raises(ConfigurationError, match=expected):
            ExecutionContext(sample_batch_size=0)
        with pytest.raises(ConfigurationError, match=expected):
            ExperimentConfig(dataset="nethept-sim", sample_batch_size=0)

    def test_mc_batch_size_message_identical_across_layers(self):
        expected = "mc_batch_size must be >= 1, got -3"
        with pytest.raises(ConfigurationError, match=expected):
            ExecutionContext(mc_batch_size=-3)
        with pytest.raises(ConfigurationError, match=expected):
            ExperimentConfig(dataset="nethept-sim", mc_batch_size=-3)

    def test_cli_rejects_bad_jobs_with_the_same_message(self, capsys):
        from repro.cli import main

        code = main(
            [
                "solve",
                "--dataset",
                "nethept-sim",
                "--n",
                "60",
                "--eta",
                "5",
                "--jobs",
                "0",
            ]
        )
        assert code == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_mc_tolerance_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="mc_tolerance must be > 0"):
            ExecutionContext(mc_tolerance=0.0)
        with pytest.raises(ConfigurationError, match="mc_tolerance must be > 0"):
            ExperimentConfig(dataset="nethept-sim", mc_tolerance=-1.0)


def test_run_sweep_smoke_with_context_policy():
    """End-to-end: run_sweep builds one context and completes."""
    config = quick_config(
        graph_n=150,
        realizations=2,
        algorithms=("ASTI", "ATEUC"),
        eta_fractions=(0.08,),
        max_samples=4000,
    )
    sweep = run_sweep(config)
    eta = sweep.eta_values[0]
    assert set(sweep.outcomes[eta]) == {"ASTI", "ATEUC"}
    for outcome in sweep.outcomes[eta].values():
        assert len(outcome.runs) == 2
