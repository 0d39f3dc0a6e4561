"""Unit tests for TRIM-B (Algorithm 3)."""

import math

import pytest

from repro.core.trim_b import TrimBParameters, TrimBSelector, batch_guarantee
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.residual import initial_residual


class TestBatchGuarantee:
    def test_b_one_is_exact(self):
        assert batch_guarantee(1) == pytest.approx(1.0)

    def test_decreasing_toward_one_minus_inv_e(self):
        values = [batch_guarantee(b) for b in (1, 2, 4, 8, 64)]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        assert values[-1] > 1 - 1 / math.e

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            batch_guarantee(0)


class TestTrimBParameters:
    def test_b_one_matches_trim(self):
        trimb = TrimBParameters(n=500, eta=50, epsilon=0.5, b=1)
        # With b = 1: rho_1 = 1 and ln C(n, 1) = ln n, so Algorithm 3's
        # Lines 2 and 5 are Algorithm 2's, bit for bit.
        assert trimb.rho == 1.0
        log_inv_delta = math.log(6.0 / trimb.delta)
        root_sum = math.sqrt(log_inv_delta) + math.sqrt(math.log(500) + log_inv_delta)
        assert trimb.theta_max == 2.0 * 500 * root_sum * root_sum / (trimb.eps_hat ** 2)
        assert trimb.a1 == trimb.a2 + math.log(500)

    def test_larger_batches_fewer_sets(self):
        b1 = TrimBParameters(n=500, eta=50, epsilon=0.5, b=1)
        b8 = TrimBParameters(n=500, eta=50, epsilon=0.5, b=8)
        assert b8.theta_max < b1.theta_max

    def test_invalid_batch(self):
        with pytest.raises(ConfigurationError):
            TrimBParameters(n=10, eta=5, epsilon=0.5, b=0)
        with pytest.raises(ConfigurationError, match="b=11 exceeds node count n=10"):
            TrimBParameters(n=10, eta=5, epsilon=0.5, b=11)


class TestTrimBSelector:
    def test_batch_size_honored(self, ic_model, small_social_damped, rng):
        selector = TrimBSelector(ic_model, b=4, epsilon=0.5)
        residual = initial_residual(small_social_damped, eta=30)
        selection = selector.select(residual, rng)
        assert len(selection.nodes) == 4
        assert len(set(selection.nodes)) == 4

    def test_batch_clamped_to_eta(self, ic_model, small_social_damped, rng):
        # eta = 2 < b = 8: no point committing more than 2 seeds.
        selector = TrimBSelector(ic_model, b=8, epsilon=0.5)
        residual = initial_residual(small_social_damped, eta=2)
        selection = selector.select(residual, rng)
        assert len(selection.nodes) <= 2

    def test_tiny_residual_seeds_everything(self, ic_model, rng):
        g = generators.path_graph(3)
        residual = initial_residual(g, eta=3)
        selector = TrimBSelector(ic_model, b=8, epsilon=0.5)
        selection = selector.select(residual, rng)
        assert sorted(selection.nodes) == [0, 1, 2]

    def test_includes_hub_on_star(self, ic_model, rng):
        g = generators.star_graph(30, probability=1.0)
        residual = initial_residual(g, eta=20)
        selector = TrimBSelector(ic_model, b=2, epsilon=0.5)
        selection = selector.select(residual, rng)
        assert 0 in selection.nodes

    def test_name_reflects_batch(self, ic_model):
        assert TrimBSelector(ic_model, b=4).name == "TRIM-B(4)"
        assert TrimBSelector(ic_model, b=4).batch_size == 4

    def test_b_one_behaves_like_trim(self, ic_model, rng):
        # Degenerate batch: should pick the star hub exactly like TRIM.
        g = generators.star_graph(20, probability=1.0)
        residual = initial_residual(g, eta=10)
        selection = TrimBSelector(ic_model, b=1, epsilon=0.5).select(residual, rng)
        assert selection.nodes == [0]

    def test_diagnostics_populated(self, ic_model, small_social_damped, rng):
        selector = TrimBSelector(ic_model, b=4, epsilon=0.5)
        residual = initial_residual(small_social_damped, eta=30)
        d = selector.select(residual, rng).diagnostics
        assert d.samples_generated > 0
        assert d.estimated_gain > 0

    def test_invalid_construction(self, ic_model):
        with pytest.raises(ConfigurationError):
            TrimBSelector(ic_model, b=0)
        with pytest.raises(ConfigurationError):
            TrimBSelector(ic_model, b=2, epsilon=1.5)
