"""Unit tests for TRIM (Algorithm 2)."""

import math

import numpy as np
import pytest

from repro.core.trim import TrimSelector
from repro.core.trim_b import TrimBParameters
from repro.errors import ConfigurationError, InfeasibleTargetError
from repro.graph import generators, weighting
from repro.graph.residual import initial_residual


class TestTrimParameters:
    """Algorithm 2's Lines 1-5 are Algorithm 3's at b = 1."""

    @pytest.mark.parametrize(
        "n, eta, epsilon, max_samples, expected",
        [
            # (delta, eps_hat, theta_max, theta_0, iterations, a1, a2) as
            # Algorithm 2's own Lines 1-5 compute them, with ln n exact.
            (500, 50, 0.5, None, (
                0.0003163953413738653, 0.49748743718592964,
                206365.38951263882, 103, 12,
                17.856645082907455, 11.642036984485266,
            )),
            (1000, 100, 0.1, None, (
                1.757751896521474e-05, 0.0990990990990991,
                13040487.633802403, 129, 18,
                21.84562912947173, 14.937873850489595,
            )),
            (1500, 120, 0.5, None, (
                0.00013183139223911055, 0.49748743718592964,
                685886.7708302999, 114, 14,
                19.984876788756726, 12.671656401666423,
            )),
            (199_999, 3000, 0.25, None, (
                1.7577518965214736e-06, 0.24812030075187969,
                537881836.5826327, 166, 23,
                29.6916490470343, 17.485581401516626,
            )),
            (1000, 100, 0.5, 500, (
                0.00015819767068693264, 0.49748743718592964,
                500.0, 1, 10,
                19.06061788723339, 12.152862608251256,
            )),
        ],
    )
    def test_b_one_schedule_pins_trim_values(self, n, eta, epsilon, max_samples, expected):
        p = TrimBParameters(n, eta, epsilon, 1, max_samples)
        got = (p.delta, p.eps_hat, p.theta_max, p.theta_0, p.iterations, p.a1, p.a2)
        assert got == expected

    def test_line1_delta_and_eps_hat(self):
        p = TrimBParameters(n=1000, eta=100, epsilon=0.5, b=1)
        one_minus_inv_e = 1 - 1 / math.e
        assert p.delta == pytest.approx(0.5 / (100 * one_minus_inv_e * 0.5 * 100))
        assert p.eps_hat == pytest.approx(99 * 0.5 / 99.5)

    def test_theta_schedule_monotone(self):
        p = TrimBParameters(n=1000, eta=100, epsilon=0.5, b=1)
        sizes = [p.pool_size_at(t) for t in range(p.iterations)]
        assert all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))
        assert sizes[0] == p.theta_0
        assert sizes[-1] <= math.ceil(p.theta_max)

    def test_iterations_cover_theta_max(self):
        p = TrimBParameters(n=1000, eta=100, epsilon=0.5, b=1)
        assert p.theta_0 * 2 ** (p.iterations - 1) >= p.theta_max

    def test_smaller_epsilon_needs_more_samples(self):
        loose = TrimBParameters(n=1000, eta=100, epsilon=0.5, b=1)
        tight = TrimBParameters(n=1000, eta=100, epsilon=0.1, b=1)
        assert tight.theta_max > loose.theta_max

    def test_max_samples_caps(self):
        p = TrimBParameters(n=1000, eta=100, epsilon=0.5, b=1, max_samples=500)
        assert p.theta_max == 500

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            TrimBParameters(n=10, eta=5, epsilon=0.0, b=1)
        with pytest.raises(ConfigurationError):
            TrimBParameters(n=10, eta=5, epsilon=1.0, b=1)

    def test_infeasible_eta(self):
        with pytest.raises(InfeasibleTargetError):
            TrimBParameters(n=10, eta=11, epsilon=0.5, b=1)


class TestTrimSelector:
    def test_selects_obvious_hub(self, ic_model, rng):
        # Certain star: the hub dominates every other node.
        g = generators.star_graph(20, probability=1.0)
        residual = initial_residual(g, eta=10)
        selection = TrimSelector(ic_model, epsilon=0.5).select(residual, rng)
        assert selection.nodes == [0]
        assert selection.diagnostics.samples_generated > 0

    def test_guarantee_holds_on_paper_example(self, ic_model):
        """Lemma 3.6's guarantee on Example 2.3.

        Note TRIM is *not* required to match the exact oracle here: the
        binary mRR estimator satisfies only the [1 - 1/e, 1] bracket of
        Theorem 3.3, and on this graph Pr[v1 in R] = 0.875 actually exceeds
        Pr[v2 in R] = 5/6, so v1 is a legitimate pick.  What must hold is
        that the picked node's exact truncated spread is within
        (1 - 1/e)(1 - eps) of the optimum (2.0, from v2/v3).
        """
        from repro.diffusion.exact import exact_expected_truncated_spread

        g = generators.paper_example_graph()
        residual = initial_residual(g, eta=2)
        epsilon = 0.3
        floor = (1 - 1 / math.e) * (1 - epsilon) * 2.0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            selection = TrimSelector(ic_model, epsilon=epsilon).select(residual, rng)
            value = exact_expected_truncated_spread(
                g, ic_model, selection.nodes, eta=2
            )
            assert value >= floor
            assert selection.nodes[0] in (0, 1, 2)  # never the dominated v4

    def test_single_node_shortcut(self, ic_model, rng):
        g = generators.path_graph(1)
        residual = initial_residual(g, eta=1)
        selection = TrimSelector(ic_model).select(residual, rng)
        assert selection.nodes == [0]
        assert selection.diagnostics.samples_generated == 0

    def test_infeasible_shortfall_raises(self, ic_model, rng):
        from repro.graph.residual import ResidualGraph

        g = generators.path_graph(3)
        residual = ResidualGraph(
            graph=g,
            original_ids=np.arange(3),
            shortfall=5,
            round_index=1,
        )
        with pytest.raises(InfeasibleTargetError):
            TrimSelector(ic_model).select(residual, rng)

    def test_diagnostics_reasonable(self, ic_model, small_social_damped, rng):
        residual = initial_residual(small_social_damped, eta=12)
        selection = TrimSelector(ic_model, epsilon=0.5).select(residual, rng)
        d = selection.diagnostics
        assert d.samples_generated >= 1
        assert d.iterations >= 1
        assert 0.0 <= d.certified_ratio <= 1.0
        assert 0.0 <= d.estimated_gain <= 12.0

    def test_max_samples_respected(self, ic_model, small_social_damped, rng):
        selector = TrimSelector(ic_model, epsilon=0.5, max_samples=64)
        residual = initial_residual(small_social_damped, eta=12)
        selection = selector.select(residual, rng)
        # Doubling can land at most one doubling past the cap's iteration
        # boundary; the cap bounds theta_max so the pool stays near 64.
        assert selection.diagnostics.samples_generated <= 130

    def test_strict_budget_raises_when_uncertified(self, ic_model, small_social_damped, rng):
        from repro.errors import BudgetExhaustedError

        selector = TrimSelector(
            ic_model, epsilon=0.05, max_samples=8, strict_budget=True
        )
        residual = initial_residual(small_social_damped, eta=12)
        with pytest.raises(BudgetExhaustedError):
            selector.select(residual, rng)

    def test_lt_model_supported(self, lt_model, rng):
        g = weighting.weighted_cascade(
            generators.preferential_attachment(60, 2, seed=2, directed=False)
        )
        residual = initial_residual(g, eta=6)
        selection = TrimSelector(lt_model, epsilon=0.5).select(residual, rng)
        assert 0 <= selection.nodes[0] < 60
