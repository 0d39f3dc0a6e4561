"""Argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` with a uniform message
format so user-facing errors read consistently across the library.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def check_probability(value: float, name: str, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a probability in ``(0, 1]`` (or ``[0, 1]``)."""
    value = float(value)
    low_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (low_ok and value <= 1.0):
        interval = "[0, 1]" if allow_zero else "(0, 1]"
        raise ConfigurationError(f"{name} must lie in {interval}, got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies strictly inside ``(0, 1)``.

    Used for the accuracy parameter ``epsilon`` of TRIM/TRIM-B, which the
    paper requires to be in ``(0, 1)``.
    """
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ConfigurationError(f"{name} must lie in the open interval (0, 1), got {value}")
    return value


def check_optional_positive_int(value: Optional[int], name: str) -> Optional[int]:
    """Validate an optional integer knob: ``None`` passes, else ``>= 1``.

    The shared validator behind every optional knob (``mc_batch_size``,
    ``jobs``, the ``max_samples`` budget cap): the CLI, the experiment
    config, and the execution context all funnel through here so a bad
    value produces the same message no matter which layer catches it.
    """
    if value is None:
        return None
    return check_positive_int(value, name)


def check_jobs(value: Optional[int], name: str = "jobs") -> Optional[int]:
    """Validate a worker-count knob (``None`` = no parallel runtime)."""
    return check_optional_positive_int(value, name)


def check_positive_float(value: Optional[float], name: str) -> Optional[float]:
    """Validate an optional strictly positive float (tolerances)."""
    if value is None:
        return None
    value = float(value)
    if not value > 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_range(
    value: int,
    name: str,
    low: int,
    high: Optional[int] = None,
) -> int:
    """Validate ``low <= value <= high`` (``high=None`` means unbounded)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < low or (high is not None and value > high):
        bound = f"[{low}, {high}]" if high is not None else f"[{low}, inf)"
        raise ConfigurationError(f"{name} must lie in {bound}, got {value}")
    return value
