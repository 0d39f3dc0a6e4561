"""Martingale concentration bounds (paper Appendix A).

TRIM and TRIM-B certify solution quality with two bounds on the *expected*
coverage of a node (set) given its *observed* coverage over a pool of
(m)RR sets.  These are Lemma A.2 of the paper (originally from the OPIM-C
analysis of Tang et al. 2018):

* with probability at least ``1 - e^-a``::

      E[Lambda] >= (sqrt(Lambda + 2a/9) - sqrt(a/2))^2 - a/18     (lower)

* with probability at least ``1 - e^-a``::

      E[Lambda] <= (sqrt(Lambda + a/2) + sqrt(a/2))^2             (upper)

where ``Lambda`` is the observed coverage count and ``a`` the log-confidence
parameter.  Lemma A.1 (the Chernoff-style two-sided tail) is included for
sample-size computations and for the tests that check the bounds hold
empirically.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def coverage_lower_bound(observed_coverage: float, a: float) -> float:
    """Lemma A.2, Eq. (18): high-probability lower bound on ``E[Lambda]``.

    Matches TRIM's Line 9 with ``a = a_1``.  The bound can dip below zero
    for tiny coverages; callers compare ratios so we clamp at 0.
    """
    _check_args(observed_coverage, a)
    root = math.sqrt(observed_coverage + 2.0 * a / 9.0) - math.sqrt(a / 2.0)
    return max(0.0, root * root - a / 18.0)


def coverage_upper_bound(observed_coverage: float, a: float) -> float:
    """Lemma A.2, Eq. (19): high-probability upper bound on ``E[Lambda]``.

    Matches TRIM's Line 10 with ``a = a_2`` (and TRIM-B's Line 10 after the
    caller divides the observed coverage by ``rho_b``).
    """
    _check_args(observed_coverage, a)
    root = math.sqrt(observed_coverage + a / 2.0) + math.sqrt(a / 2.0)
    return root * root


def chernoff_upper_tail(mean: float, deviation: float, samples: int) -> float:
    """Lemma A.1, Eq. (16): ``Pr[X_bar > E + lambda]`` bound.

    ``mean`` and ``deviation`` are per-sample quantities in ``[0, 1]``.
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    if deviation < 0:
        raise ConfigurationError(f"deviation must be >= 0, got {deviation}")
    if deviation == 0:
        return 1.0
    exponent = -(deviation * deviation * samples) / (2.0 * mean + 2.0 * deviation / 3.0)
    return math.exp(exponent)


def chernoff_lower_tail(mean: float, deviation: float, samples: int) -> float:
    """Lemma A.1, Eq. (17): ``Pr[X_bar < E - lambda]`` bound."""
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    if deviation < 0:
        raise ConfigurationError(f"deviation must be >= 0, got {deviation}")
    if deviation == 0:
        return 1.0
    if mean <= 0:
        return 0.0
    return math.exp(-(deviation * deviation * samples) / (2.0 * mean))


def log_binomial(n: int, k: int) -> float:
    """``ln C(n, k)`` via lgamma; used by TRIM-B's union bound over size-b sets.

    ``k = 1`` returns ``math.log(n)`` exactly (the lgamma difference is off
    in the last bits), so TRIM-B at ``b = 1`` derives TRIM's constants.
    """
    if k < 0 or n < 0 or k > n:
        raise ConfigurationError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 1:
        return math.log(n)
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def _check_args(observed_coverage: float, a: float) -> None:
    if observed_coverage < 0:
        raise ConfigurationError(
            f"coverage must be non-negative, got {observed_coverage}"
        )
    if a <= 0:
        raise ConfigurationError(f"confidence parameter a must be > 0, got {a}")
