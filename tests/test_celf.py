"""Unit tests for the CELF lazy-greedy baseline."""

import pytest

from repro.baselines.celf import celf_influence_maximization, celf_seed_minimization
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.testing.reference import fresh_noise_celf


class TestCelfIM:
    def test_star_hub_first(self, ic_model):
        g = generators.star_graph(15, probability=1.0)
        result = celf_influence_maximization(g, ic_model, k=1, samples=30, seed=0)
        assert result.seeds == [0]
        assert result.estimated_spread == pytest.approx(15.0)

    def test_k_seeds_returned(self, ic_model, small_social_damped):
        result = celf_influence_maximization(
            small_social_damped, ic_model, k=3, samples=40, seed=1
        )
        assert result.seed_count == 3
        assert len(set(result.seeds)) == 3

    def test_lazy_skips_happen(self, ic_model, small_social_damped):
        result = celf_influence_maximization(
            small_social_damped, ic_model, k=2, samples=30, seed=2
        )
        assert result.lazy_skips > 0  # the whole point of CELF

    def test_spread_monotone_in_k(self, ic_model, small_social_damped):
        r1 = celf_influence_maximization(
            small_social_damped, ic_model, k=1, samples=60, seed=3
        )
        r3 = celf_influence_maximization(
            small_social_damped, ic_model, k=3, samples=60, seed=3
        )
        assert r3.estimated_spread >= r1.estimated_spread * 0.9

    def test_validation(self, ic_model, path3):
        with pytest.raises(ConfigurationError):
            celf_influence_maximization(path3, ic_model, k=0)
        with pytest.raises(ConfigurationError):
            celf_influence_maximization(path3, ic_model, k=9)
        with pytest.raises(ConfigurationError):
            celf_influence_maximization(path3, ic_model, k=1, samples=0)


class TestCelfSeedMinimization:
    def test_stops_at_target(self, ic_model, two_components):
        result = celf_seed_minimization(two_components, ic_model, eta=4, samples=30, seed=0)
        assert result.seed_count == 2
        assert result.estimated_spread >= 4

    def test_star_single_seed(self, ic_model):
        g = generators.star_graph(20, probability=1.0)
        result = celf_seed_minimization(g, ic_model, eta=12, samples=30, seed=1)
        assert result.seeds == [0]

    def test_agrees_with_ateuc_order_of_magnitude(self, ic_model, small_social_damped):
        from repro.baselines.ateuc import ATEUC

        eta = 25
        celf = celf_seed_minimization(
            small_social_damped, ic_model, eta=eta, samples=60, seed=2
        )
        ateuc = ATEUC(ic_model).run(small_social_damped, eta=eta, seed=2)
        assert celf.seed_count <= 3 * ateuc.seed_count + 2
        assert ateuc.seed_count <= 3 * celf.seed_count + 2

    def test_validation(self, ic_model, path3):
        with pytest.raises(ConfigurationError):
            celf_seed_minimization(path3, ic_model, eta=0)
        with pytest.raises(ConfigurationError):
            celf_seed_minimization(path3, ic_model, eta=4)


class TestCelfDeterminism:
    """Satellite: CRN evaluation makes CELF a pure function of the seed."""

    def test_same_seed_same_seed_set(self, ic_model, small_social_damped):
        runs = [
            celf_influence_maximization(
                small_social_damped, ic_model, k=4, samples=40, seed=7
            )
            for _ in range(2)
        ]
        assert runs[0].seeds == runs[1].seeds
        assert runs[0].estimated_spread == runs[1].estimated_spread
        assert runs[0].lazy_skips == runs[1].lazy_skips

    def test_minimization_deterministic(self, ic_model, small_social_damped):
        first = celf_seed_minimization(
            small_social_damped, ic_model, eta=30, samples=40, seed=11
        )
        second = celf_seed_minimization(
            small_social_damped, ic_model, eta=30, samples=40, seed=11
        )
        assert first.seeds == second.seeds

    def test_lt_model_deterministic(self, lt_model, small_social):
        first = celf_influence_maximization(
            small_social, lt_model, k=3, samples=30, seed=5
        )
        second = celf_influence_maximization(
            small_social, lt_model, k=3, samples=30, seed=5
        )
        assert first.seeds == second.seeds

    def test_legacy_fresh_noise_path_still_runs(self, ic_model, two_components):
        result = fresh_noise_celf(
            two_components, ic_model, samples=30, seed=0, eta=4
        )
        assert result.seed_count == 2
        assert result.estimated_spread >= 4


class TestCelfHarnessAdapter:
    def test_minimizer_run_shape(self, ic_model, small_social_damped):
        from repro.baselines.celf import CELFMinimizer

        adapter = CELFMinimizer(ic_model, samples=30)
        result = adapter.run(small_social_damped, eta=20, seed=3)
        assert result.policy_name == "CELF"
        assert result.seed_count == len(result.seeds) > 0
        assert result.seconds >= 0.0
        assert result.estimated_spread >= 20
