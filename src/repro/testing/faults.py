"""Deterministic fault injection for the parallel runtime.

The supervisor in :meth:`repro.parallel.runtime.ParallelRuntime.map_ordered`
recovers from worker deaths and hangs.  Proving
that the recovered output is **bit-identical** to a clean run needs faults
that are reproducible on demand: this module provides a picklable
:class:`FaultInjection` spec that fires on an exact ``(chunk, attempt)``
coordinate, so a test can say "kill the worker running the third chunk,
first attempt" and get exactly that, every time.

Chunks are numbered by the runtime's lifetime dispatch counter (chunk ``k``
is the ``k``-th chunk the runtime ever submitted to workers, counting from
0 — the same global index that fixes the chunk's seed sequence), and
``attempt`` counts the chunk's submissions, starting at 0: every pool
rebuild resubmits the unfinished chunks under the next attempt number.
An injection enabled on an :class:`~repro.runtime.context.ExecutionContext`
(``context.fault_injection``) travels into the context's runtime and wraps
every *worker-pool* submission in :func:`run_with_injection`; the in-process
``jobs=1`` route and the supervisor's degraded re-runs are never injected —
they are the reference the recovery is measured against.

Kinds:

``"crash"``
    ``os._exit`` in the worker — hard death without cleanup, the pool
    surfaces ``BrokenProcessPool`` (exercises the rebuild path).
``"kill"``
    ``SIGKILL`` to the worker's own pid — indistinguishable from the OOM
    killer (also the rebuild path, but through signal delivery).
``"hang"``
    sleep for ``hang_seconds`` before doing the work — with a policy
    ``chunk_timeout`` below it, exercises the timeout + rebuild path.
``"corrupt"``
    run the chunk, then perturb the first element of its first non-empty
    array — the **negative control**: silent corruption is invisible to
    the supervisor by design, so the bit-identity equivalence checks in
    the tests and the chaos gate must catch it downstream.  A gate that
    stays green under this injector is measuring nothing.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.parallel.runtime import ParallelRuntime
    from repro.sampling.mrr import CarriedMRRPool

#: The injector kinds understood by :func:`run_with_injection`.
FAULT_KINDS = ("crash", "kill", "hang", "corrupt")

#: The service-level injector kinds understood by the seed-selection
#: server (:mod:`repro.service.server`): ``slow_handler`` stalls a
#: request's compute phase (exercises deadlines and backpressure),
#: ``pool_kill`` SIGKILLs one live worker of the shared runtime
#: mid-request (exercises the rebuild/recovery path under load), and
#: ``cache_corrupt`` tampers with the cached pool offered to a request
#: (exercises the replay integrity check and the discard-and-rebuild
#: path — the response must stay bit-identical anyway).
SERVICE_FAULT_KINDS = ("slow_handler", "pool_kill", "cache_corrupt")


@dataclass(frozen=True)
class FaultInjection:
    """A deterministic fault at one ``(chunk, attempt)`` coordinate.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    nth:
        The lifetime chunk index (0-based, across all of the runtime's
        dispatches) on which to fire.
    attempts:
        The submission attempts on which to fire; the default ``(0,)``
        faults the first execution only, so one pool rebuild recovers.  A
        spec listing every attempt outlasts the rebuild budget and forces
        the in-process degradation.
    hang_seconds:
        Sleep length for ``kind="hang"``.
    """

    kind: str
    nth: int = 0
    attempts: tuple[int, ...] = (0,)
    hang_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.nth < 0:
            raise ConfigurationError(
                f"fault chunk index must be >= 0, got {self.nth}"
            )

    def fires(self, index: int, attempt: int) -> bool:
        """Whether the fault triggers for this ``(chunk, attempt)``."""
        return index == self.nth and attempt in self.attempts


def _corrupt_result(result):
    """Perturb the first element of the first non-empty array in ``result``.

    Works on the chunk-result shapes the runtime actually ships (an array,
    a tuple/list of arrays, or a list of scalars); anything else is
    returned unchanged.  The perturbation is +1 on a *copy*, so the noise
    is deterministic and the shared segment itself is never written.
    """
    if isinstance(result, np.ndarray):
        if result.size == 0:
            return result
        corrupted = result.copy()
        corrupted.flat[0] += 1
        return corrupted
    if isinstance(result, (tuple, list)):
        items = list(result)
        for position, item in enumerate(items):
            replaced = _corrupt_result(item)
            if replaced is not item:
                items[position] = replaced
                return type(result)(items) if isinstance(result, tuple) else items
        if items and isinstance(items[0], (int, float)):
            items[0] = items[0] + 1
            return type(result)(items) if isinstance(result, tuple) else items
    return result


def run_with_injection(spec: FaultInjection, index: int, attempt: int, fn, payload):
    """Worker-side wrapper: fire ``spec`` if armed, then run the chunk.

    Module-level so it pickles by reference into spawn-context workers;
    the supervisor substitutes it for the raw chunk function whenever the
    runtime carries an injection spec.
    """
    if spec.fires(index, attempt):
        if spec.kind == "crash":  # pragma: no cover - kills the worker
            os._exit(17)
        if spec.kind == "kill":  # pragma: no cover - kills the worker
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "hang":
            # The injected hang *is* the fault under test, not a delay the
            # supervisor should be routing through backoff_sleep.
            time.sleep(spec.hang_seconds)  # repro-lint: disable=REP007 -- injected fault
    result = fn(*payload)
    if spec.kind == "corrupt" and spec.fires(index, attempt):
        result = _corrupt_result(result)
    return result


@dataclass(frozen=True)
class ServiceFaultInjection:
    """A deterministic service-level fault at one admitted-request index.

    Parameters
    ----------
    kind:
        One of :data:`SERVICE_FAULT_KINDS`.
    nth:
        The admitted-request index (0-based, counted across the server's
        lifetime; ``health`` requests bypass admission and do not count)
        on which to fire.
    delay_seconds:
        Stall length for ``kind="slow_handler"``.
    """

    kind: str
    nth: int = 0
    delay_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ConfigurationError(
                f"service fault kind must be one of {SERVICE_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.nth < 0:
            raise ConfigurationError(
                f"fault request index must be >= 0, got {self.nth}"
            )
        if not self.delay_seconds >= 0.0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def fires(self, index: int) -> bool:
        """Whether the fault triggers for this admitted-request index."""
        return index == self.nth


def service_slow_handler(delay_seconds: float) -> None:
    """Stall a request's compute phase (worker-thread side).

    Lives here rather than in the service so the one deliberate blocking
    sleep in the request path is an *injected fault*, clearly marked as
    such — the service's own async code never blocks (REP007).
    """
    # The stall is the fault under test; an async sleep would not occupy
    # the admission slot the way a genuinely slow handler does.
    time.sleep(delay_seconds)  # repro-lint: disable=REP007 -- injected fault


def kill_one_worker(runtime: ParallelRuntime) -> int:
    """SIGKILL one live worker process of ``runtime``; returns its pid.

    Indistinguishable from the OOM killer taking a worker mid-request.
    Returns 0 when the runtime has no live worker to kill (not parallel,
    pool not started yet, or all workers already dead) — the injection is
    then a no-op and the request proceeds normally.
    """
    executor = runtime._state.get("executor")
    if executor is None:
        return 0
    for process in list((getattr(executor, "_processes", None) or {}).values()):
        if process.is_alive() and process.pid:
            os.kill(process.pid, signal.SIGKILL)
            return int(process.pid)
    return 0


def corrupt_carried_pool(pool: CarriedMRRPool) -> CarriedMRRPool:
    """A tampered copy of a cached pool snapshot (detectably invalid).

    The first set's root count is pushed far outside any
    :class:`~repro.sampling.mrr.RootCountRule` support, so
    :meth:`~repro.sampling.mrr.CarriedMRRPool.replay` (and
    :meth:`~repro.sampling.mrr.CarriedMRRPool.revalidate`) must reject
    it — the estimate handler then discards the whole carry and rebuilds
    from scratch, keeping the response bit-identical to a cold run.  A
    corruption the integrity check could *not* catch (silently perturbing
    a member to another valid id) is deliberately not offered here:
    cached pools are trusted snapshots under an exact key, and the chaos
    gate's job is to prove the discard path fires, not to defeat it.
    """
    if len(pool) == 0:
        return pool
    root_counts = pool.root_counts.copy()
    root_counts[0] = np.iinfo(np.int64).max // 2
    return replace(pool, root_counts=root_counts)


def echo_chunk(value):
    """Identity chunk for supervisor unit tests (picklable by reference)."""
    return value


def interrupt_chunk(value):
    """A chunk that raises ``KeyboardInterrupt`` — the user hitting Ctrl-C
    while a worker holds the chunk; dispatch must propagate it, not recover."""
    raise KeyboardInterrupt
