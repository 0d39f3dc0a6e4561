"""Unit tests for the concentration bounds (paper Appendix A)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sampling.bounds import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    coverage_lower_bound,
    coverage_upper_bound,
    log_binomial,
)


class TestCoverageBounds:
    def test_lower_below_upper(self):
        for coverage in (0, 1, 5, 50, 500, 5000):
            for a in (0.5, 2.0, 10.0):
                assert coverage_lower_bound(coverage, a) <= coverage_upper_bound(
                    coverage, a
                )

    def test_lower_bound_below_observation(self):
        # The LB corrects downward from the observation.
        for coverage in (10, 100, 1000):
            assert coverage_lower_bound(coverage, 5.0) <= coverage

    def test_upper_bound_above_observation(self):
        for coverage in (0, 10, 100, 1000):
            assert coverage_upper_bound(coverage, 5.0) >= coverage

    def test_bounds_tighten_relatively_with_coverage(self):
        # Relative slack shrinks as the observation grows.
        a = 5.0
        def relative_gap(c):
            return (coverage_upper_bound(c, a) - coverage_lower_bound(c, a)) / c

        assert relative_gap(10000) < relative_gap(100) < relative_gap(10)

    def test_lower_bound_clamped_at_zero(self):
        assert coverage_lower_bound(0, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            coverage_lower_bound(-1, 1.0)
        with pytest.raises(ConfigurationError):
            coverage_upper_bound(1, 0.0)

    def test_empirical_validity_lower(self, rng):
        # Binomial coverage: the LB should hold with prob >= 1 - e^-a.
        a = 3.0
        failures = 0
        trials = 400
        theta, p = 200, 0.3
        for _ in range(trials):
            observed = rng.binomial(theta, p)
            if coverage_lower_bound(observed, a) > theta * p:
                failures += 1
        assert failures / trials <= math.exp(-a) + 0.03

    def test_empirical_validity_upper(self, rng):
        a = 3.0
        failures = 0
        trials = 400
        theta, p = 200, 0.3
        for _ in range(trials):
            observed = rng.binomial(theta, p)
            if coverage_upper_bound(observed, a) < theta * p:
                failures += 1
        assert failures / trials <= math.exp(-a) + 0.03


class TestChernoffTails:
    def test_decreasing_in_deviation(self):
        p1 = chernoff_upper_tail(0.5, 0.1, 100)
        p2 = chernoff_upper_tail(0.5, 0.2, 100)
        assert p2 < p1

    def test_decreasing_in_samples(self):
        p1 = chernoff_lower_tail(0.5, 0.1, 100)
        p2 = chernoff_lower_tail(0.5, 0.1, 1000)
        assert p2 < p1

    def test_bounded_by_one(self):
        assert chernoff_upper_tail(0.5, 0.0, 10) == 1.0
        assert chernoff_lower_tail(0.5, 0.0, 10) == 1.0

    def test_zero_mean_lower_tail(self):
        assert chernoff_lower_tail(0.0, 0.1, 10) == 0.0

    def test_empirically_valid(self, rng):
        # Pr[mean of Bernoulli(0.4) over T > 0.4 + 0.1] <= bound.
        T, p, lam = 200, 0.4, 0.1
        bound = chernoff_upper_tail(p, lam, T)
        exceed = np.mean([
            rng.binomial(T, p) / T > p + lam for _ in range(2000)
        ])
        assert exceed <= bound + 0.02

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            chernoff_upper_tail(0.5, -0.1, 10)
        with pytest.raises(ConfigurationError):
            chernoff_lower_tail(0.5, 0.1, 0)


class TestLogBinomial:
    def test_small_values(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10))
        assert log_binomial(10, 0) == pytest.approx(0.0)
        assert log_binomial(10, 10) == pytest.approx(0.0)

    def test_k_one_is_exact_log(self):
        # TRIM-B at b = 1 must derive TRIM's constants bit for bit.
        for n in list(range(1, 2000)) + [10**6 + 3, 2**40, 10**12]:
            assert log_binomial(n, 1) == math.log(n)

    def test_symmetry(self):
        assert log_binomial(20, 4) == pytest.approx(log_binomial(20, 16))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            log_binomial(3, 5)
        with pytest.raises(ConfigurationError):
            log_binomial(-1, 0)
