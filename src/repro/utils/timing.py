"""Wall-clock timing shared by the harness, the runtime, and the service.

Three tools live here, all on one clock:

* :class:`Stopwatch` — accumulating ``perf_counter`` spans (harness);
* :class:`Deadline` — a monotonic point in time that the parallel
  supervisor's chunk-timeout waits and the service layer's per-request
  deadlines both measure against, so "how long may this still take" is
  computed the same way everywhere;
* :func:`backoff_sleep` — the **only** sanctioned blocking sleep in the
  library (lint rule REP007 exempts this module): client retry loops
  (such as the service load benchmark's) route through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


class Stopwatch:
    """Accumulating stopwatch.

    Can be used either as a context manager around a region::

        sw = Stopwatch()
        with sw:
            do_work()
        print(sw.elapsed)

    or via explicit :meth:`start` / :meth:`stop` calls.  Multiple runs
    accumulate, which is what the per-round timing in the harness needs.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._started_at: Optional[float] = None

    @property
    def elapsed(self) -> float:
        """Total accumulated seconds (including a currently running span)."""
        total = self._elapsed
        if self._started_at is not None:
            total += time.perf_counter() - self._started_at
        return total

    @property
    def running(self) -> bool:
        return self._started_at is not None

    def start(self) -> Stopwatch:
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch is not running")
        self._elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self._elapsed

    def reset(self) -> None:
        self._elapsed = 0.0
        self._started_at = None

    def __enter__(self) -> Stopwatch:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


@dataclass(frozen=True)
class Deadline:
    """A point on the monotonic clock that work must finish by.

    Built with :meth:`after`; ``Deadline.after(None)`` is the unbounded
    deadline (never expires, :meth:`remaining` returns ``None`` — exactly
    what ``Future.result(timeout=None)`` and ``asyncio.wait_for(...,
    timeout=None)`` expect), so callers need no ``if timeout is None``
    branches.  Frozen: a deadline is a fact about the past ("this request
    was admitted at T with budget B"), not a mutable timer.
    """

    #: Absolute ``time.monotonic()`` expiry, or ``None`` for unbounded.
    expires_at: Optional[float]

    @classmethod
    def after(cls, seconds: Optional[float]) -> Deadline:
        """The deadline ``seconds`` from now; ``None`` never expires."""
        if seconds is None:
            return cls(expires_at=None)
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise ConfigurationError(
                f"deadline seconds must be a number or None, "
                f"got {type(seconds).__name__}"
            )
        if seconds < 0:
            raise ConfigurationError(
                f"deadline seconds must be >= 0, got {seconds}"
            )
        return cls(expires_at=time.monotonic() + float(seconds))

    @property
    def unbounded(self) -> bool:
        return self.expires_at is None

    def remaining(self) -> Optional[float]:
        """Seconds left (clamped at 0.0), or ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed (never, when unbounded)."""
        if self.expires_at is None:
            return False
        return time.monotonic() >= self.expires_at


def backoff_sleep(base: float, attempt: int) -> float:
    """Block for the exponential-backoff delay of retry ``attempt``.

    Attempt ``k`` (1-based) sleeps ``base * 2**(k-1)`` seconds; a zero
    ``base`` returns immediately.  Returns the delay actually slept.  This
    is the library's one sanctioned blocking sleep (REP007): retry loops
    call it instead of ``time.sleep`` so every deliberate delay is
    greppable, and async code must never call it (await
    ``asyncio.sleep`` instead).
    """
    if not base >= 0.0:
        raise ConfigurationError(f"backoff base must be >= 0, got {base}")
    if not isinstance(attempt, int) or isinstance(attempt, bool) or attempt < 1:
        raise ConfigurationError(
            f"backoff attempt must be an int >= 1, got {attempt!r}"
        )
    delay = base * 2 ** (attempt - 1)
    if delay > 0.0:
        time.sleep(delay)
    return delay


def format_seconds(seconds: float) -> str:
    """Render a duration compactly: ``950ms``, ``12.3s``, ``4m02s``."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rem:04.1f}s"
