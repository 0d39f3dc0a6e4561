"""Unit tests for the multi-realization comparison harness."""

import pytest

from repro.diffusion.ic import IndependentCascade
from repro.errors import ConfigurationError
from repro.runtime.context import ExecutionContext
from repro.experiments.config import quick_config
from repro.experiments.harness import (
    build_algorithm,
    run_eta_point,
    run_sweep,
    sample_shared_realizations,
)


@pytest.fixture(scope="module")
def tiny_sweep():
    config = quick_config(
        graph_n=150,
        realizations=3,
        algorithms=("ASTI", "ASTI-4", "ATEUC"),
        eta_fractions=(0.05, 0.15),
        max_samples=4000,
        seed=0,
    )
    return run_sweep(config)


class TestBuildAlgorithm:
    def test_labels(self, ic_model):
        assert build_algorithm("ASTI", ic_model, 0.5, None).name == "ASTI"
        assert build_algorithm("ASTI-8", ic_model, 0.5, None).name == "ASTI-8"
        assert build_algorithm("AdaptIM", ic_model, 0.5, None).name == "AdaptIM"
        assert build_algorithm("ATEUC", ic_model, 0.5, None).name == "ATEUC"

    def test_unknown_label(self, ic_model):
        with pytest.raises(ConfigurationError):
            build_algorithm("IMM", ic_model, 0.5, None)


class TestSharedRealizations:
    def test_count_and_reproducibility(self, small_social_damped):
        model = IndependentCascade()
        a = sample_shared_realizations(small_social_damped, model, 4, seed=1)
        b = sample_shared_realizations(small_social_damped, model, 4, seed=1)
        assert len(a) == 4
        for phi_a, phi_b in zip(a, b):
            assert phi_a.spread([0]) == phi_b.spread([0])

    def test_independent_worlds_differ(self, small_social_damped):
        model = IndependentCascade()
        worlds = sample_shared_realizations(small_social_damped, model, 8, seed=2)
        counts = {phi.live_edge_count() for phi in worlds}
        assert len(counts) > 1


class TestRunEtaPoint:
    def test_adaptive_always_feasible(self, small_social_damped):
        model = IndependentCascade()
        worlds = sample_shared_realizations(small_social_damped, model, 3, seed=3)
        outcomes = run_eta_point(
            small_social_damped, model, 15, ("ASTI",), worlds, max_samples=4000
        )
        assert outcomes["ASTI"].always_feasible
        assert len(outcomes["ASTI"].runs) == 3

    def test_ateuc_single_selection(self, small_social_damped):
        model = IndependentCascade()
        worlds = sample_shared_realizations(small_social_damped, model, 4, seed=4)
        outcomes = run_eta_point(
            small_social_damped, model, 15, ("ATEUC",), worlds, max_samples=4000
        )
        counts = {r.seed_count for r in outcomes["ATEUC"].runs}
        assert len(counts) == 1  # one fixed seed set evaluated everywhere

    def test_celf_roster_entry(self, small_social_damped):
        model = IndependentCascade()
        worlds = sample_shared_realizations(small_social_damped, model, 3, seed=4)
        outcomes = run_eta_point(
            small_social_damped, model, 15, ("CELF",), worlds,
            context=ExecutionContext(mc_batch_size=64),
        )
        counts = {r.seed_count for r in outcomes["CELF"].runs}
        assert len(counts) == 1  # non-adaptive: one selection, many worlds
        assert len(outcomes["CELF"].runs) == 3
        assert all(r.seed_count >= 1 for r in outcomes["CELF"].runs)


class TestSweep:
    def test_structure(self, tiny_sweep):
        assert len(tiny_sweep.eta_values) == 2
        for eta in tiny_sweep.eta_values:
            assert set(tiny_sweep.outcomes[eta]) == {"ASTI", "ASTI-4", "ATEUC"}

    def test_series_extraction(self, tiny_sweep):
        seeds = tiny_sweep.series("ASTI", "seeds")
        seconds = tiny_sweep.series("ASTI", "seconds")
        feasibility = tiny_sweep.series("ASTI", "feasibility")
        assert len(seeds) == 2
        assert all(s >= 1 for s in seeds)
        assert all(t >= 0 for t in seconds)
        assert feasibility == [1.0, 1.0]  # adaptive is always feasible

    def test_seeds_monotone_in_eta(self, tiny_sweep):
        seeds = tiny_sweep.series("ASTI", "seeds")
        assert seeds[0] <= seeds[1]

    def test_unknown_metric(self, tiny_sweep):
        with pytest.raises(ConfigurationError):
            tiny_sweep.series("ASTI", "happiness")

    def test_spread_meets_eta_for_adaptive(self, tiny_sweep):
        for eta in tiny_sweep.eta_values:
            assert tiny_sweep.outcomes[eta]["ASTI"].mean_spread >= eta
