"""Kernel backends for the labeled-BFS hot loops.

Every engine in the library bottoms out in the per-level frontier
expansions of the shared labeled-BFS driver; this package makes that inner
loop pluggable behind a small registry (the DGL ``backend as F`` idea,
scoped to the three expansion families this codebase actually has):

* ``"numpy"`` — the vectorized closures the models have always used; the
  reference backend, always available.
* ``"numba"`` — the same per-level rules as njit-compiled loops over the
  CSR arrays (:mod:`repro.kernels.numba_backend`); requires the optional
  ``[numba]`` extra.
* ``"python"`` — the compiled kernels' *source* run interpreted
  (:mod:`repro.kernels.reference`); far too slow for real runs but
  bit-identical to both other backends, so equivalence tests cover the
  kernel code path on machines without numba.

Selection goes through :func:`resolve_backend`, driven by the
``ExecutionContext.kernel_backend`` knob: ``"auto"`` picks numba when it is
importable and the graph is big enough to amortize dispatch
(``AUTO_MIN_EDGES``), silently falling back to numpy otherwise; an explicit
name pins the backend, and pinning ``"numba"`` without numba installed
raises :class:`~repro.errors.ConfigurationError` naming the missing extra.

Bit-identity across backends is a hard invariant, not an aspiration: all
randomness is drawn by the caller from the ordinary numpy ``Generator``
(one vectorized draw per level, exactly like the numpy closures) and
passed into the kernels, so a pool, CRN estimate, or adaptive run is the
same bit for bit under every backend — the equivalence tests pin this.

The module-level :data:`KERNEL_STATS` sink records what the dispatch layer
actually did (per-driver kernel call counts, JIT compile seconds, the
backends resolved); ``ExecutionContext.note_kernels`` snapshots it into the
context diagnostics next to ``note_graph``'s dtype records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.graph.digraph import DiGraph

#: Knob values accepted by ``ExecutionContext.kernel_backend`` and
#: ``ExperimentConfig.kernel_backend`` (and the CLI's ``--kernel-backend``).
KERNEL_BACKENDS = ("auto", "numpy", "numba", "python")

#: ``"auto"`` only picks the compiled backend on graphs with at least this
#: many edges: below it, per-call dispatch and argument marshalling dominate
#: and the numpy closures are already fast, so tiny graphs (and most unit
#: tests) stay on the reference path.
AUTO_MIN_EDGES = 512


@dataclass(frozen=True)
class KernelBackend:
    """A resolved backend: its name and (for kernel paths) its module.

    ``kernels`` is ``None`` for the numpy backend — the models keep their
    vectorized closures — and the kernel module (compiled or interpreted)
    otherwise; callers branch on it.
    """

    name: str
    compiled: bool
    kernels: Optional[Any]


_NUMPY = KernelBackend(name="numpy", compiled=False, kernels=None)

# Lazy import slot for the numba backend: None = not tried yet, otherwise
# a (module_or_None, error_message) pair.  Tests monkeypatch this to
# simulate a missing or import-broken numba.
_NUMBA_CACHE: Optional[tuple[Optional[Any], Optional[str]]] = None


def _load_numba_backend() -> tuple[Optional[Any], Optional[str]]:
    global _NUMBA_CACHE
    if _NUMBA_CACHE is None:
        try:
            from repro.kernels import numba_backend

            _NUMBA_CACHE = (numba_backend, None)
        except Exception as exc:  # ImportError, or a broken install
            _NUMBA_CACHE = (None, f"{type(exc).__name__}: {exc}")
    return _NUMBA_CACHE


def numba_available() -> bool:
    """Whether the compiled backend can be imported here."""
    return _load_numba_backend()[0] is not None


def _python_backend() -> KernelBackend:
    from repro.kernels import reference

    return KernelBackend(name="python", compiled=False, kernels=reference)


def _numba_backend() -> KernelBackend:
    module, error = _load_numba_backend()
    if module is None:
        raise ConfigurationError(
            "kernel_backend='numba' but the compiled backend is unavailable "
            f"({error}); install the optional extra with "
            "`pip install .[numba]`, or use kernel_backend='auto' to fall "
            "back to the numpy reference backend"
        )
    return KernelBackend(name="numba", compiled=True, kernels=module)


def resolve_backend(name: str, graph: Optional[DiGraph] = None) -> KernelBackend:
    """Resolve a ``kernel_backend`` knob value into a concrete backend.

    ``"auto"`` returns the compiled backend when numba is importable and
    ``graph`` (when given) has at least :data:`AUTO_MIN_EDGES` edges —
    otherwise the numpy reference backend, silently.  Explicit names pin
    the choice; ``"numba"`` raises :class:`ConfigurationError` naming the
    ``[numba]`` extra when the import fails.  Every resolution is tallied
    in :data:`KERNEL_STATS`.
    """
    if name not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"kernel_backend must be one of {KERNEL_BACKENDS}, got {name!r}"
        )
    if name == "numpy":
        backend = _NUMPY
    elif name == "python":
        backend = _python_backend()
    elif name == "numba":
        backend = _numba_backend()
    elif not numba_available():
        backend = _NUMPY
    elif graph is not None and graph.m < AUTO_MIN_EDGES:
        backend = _NUMPY
    else:
        backend = _numba_backend()
    resolved = KERNEL_STATS["resolved"]
    resolved[backend.name] = resolved.get(backend.name, 0) + 1
    return backend


# ----------------------------------------------------------------------
# Kernel decision stats (feeds ExecutionContext.note_kernels)
# ----------------------------------------------------------------------

def _fresh_stats() -> dict[str, Any]:
    return {"calls": {}, "jit_seconds": 0.0, "resolved": {}}


#: Process-wide dispatch bookkeeping: ``calls`` counts kernel invocations
#: per driver (``ic_forward``, ``ic_reverse``, ``lt_forward``,
#: ``lt_reverse``, ``replay_ic``, ``replay_lt``), ``jit_seconds``
#: accumulates time spent inside calls that triggered a fresh numba
#: compilation (attributed via dispatcher signature growth), ``resolved``
#: counts backend resolutions by resolved name.  Deliberately global — the
#: hot loops must not thread a stats object — and snapshotted into a
#: context's diagnostics by ``note_kernels``.
KERNEL_STATS: dict[str, Any] = _fresh_stats()


def note_call(driver: str, seconds: float, compiled_fresh: bool) -> None:
    """Tally one kernel invocation (and its JIT time, if it compiled)."""
    calls = KERNEL_STATS["calls"]
    calls[driver] = calls.get(driver, 0) + 1
    if compiled_fresh:
        KERNEL_STATS["jit_seconds"] += seconds


def snapshot_stats(since: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """A deep-enough copy of :data:`KERNEL_STATS` for diagnostics sinks.

    With ``since`` (an earlier snapshot), only the activity after it: a
    run that snapshots on entry reports its own dispatches, not those of
    earlier runs in the same process.
    """
    base = since if since is not None else _fresh_stats()

    def delta(key: str) -> dict[str, int]:
        earlier = base[key]
        return {
            name: count - earlier.get(name, 0)
            for name, count in KERNEL_STATS[key].items()
            if count != earlier.get(name, 0)
        }

    return {
        "calls": delta("calls"),
        "jit_seconds": float(KERNEL_STATS["jit_seconds"] - base["jit_seconds"]),
        "resolved": delta("resolved"),
    }


def reset_stats() -> None:
    """Zero the process-wide kernel stats (tests and benchmarks)."""
    global KERNEL_STATS
    KERNEL_STATS = _fresh_stats()


__all__ = [
    "AUTO_MIN_EDGES",
    "KERNEL_BACKENDS",
    "KERNEL_STATS",
    "KernelBackend",
    "note_call",
    "numba_available",
    "reset_stats",
    "resolve_backend",
    "snapshot_stats",
]
