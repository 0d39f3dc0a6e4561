"""The unified execution context.

Every engine in the library — the batched (m)RR sampler, the CRN forward
evaluator, the Monte-Carlo estimators, the adaptive-session engine, the
experiment harness, and the baselines — takes its engine policy from one
:class:`ExecutionContext`, passed down as the single ``context=`` argument
(``None`` means ``ExecutionContext()``).  No engine takes a per-call knob
that duplicates a context field.  The context carries:

* **batching policy** — ``sample_batch_size`` for the reverse engine,
  ``mc_batch_size`` / ``mc_tolerance`` for the forward estimators;
* **pool policy** — ``reuse_pool`` for the adaptive cross-round carry-over;
* **parallelism** — ``jobs`` plus the lazily created
  :class:`~repro.parallel.runtime.ParallelRuntime`;
* **storage** — the optional persistent ``pool_store``;
* **telemetry** — the run's counters and decisions, read through the
  :attr:`diagnostics` view together with the runtime's, the store's and
  the kernel layer's.

Ownership follows one rule: whoever builds a context closes it (``with
ExecutionContext(jobs=2) as context: ...``).  Facades and engines never
close a context they are handed.  A caller that already holds a
:class:`~repro.parallel.runtime.ParallelRuntime` lends it to a context with
:meth:`ExecutionContext.attach_runtime` and keeps closing it itself.

Policy never changes results beyond what the documented knob says: batch
sizes, jobs, kernel backend, and store are pure performance policy for a
fixed RNG route (``jobs=None`` single-stream vs. any explicit ``jobs``).
Algorithm inputs — η, ε, TRIM-B's batch ``b``, and the ``max_samples``
budget cap — are arguments of the algorithms, not context fields.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from repro.parallel.runtime import FaultPolicy, ParallelRuntime
    from repro.store import PoolStore
    from repro.testing.faults import FaultInjection

from repro.errors import ConfigurationError
# Module import, not names: repro.kernels imports repro.runtime.telemetry,
# so this package can be mid-import when the kernels package starts.
from repro import kernels
from repro.runtime.telemetry import Telemetry
from repro.utils.validation import (
    check_jobs,
    check_optional_positive_int,
    check_positive_float,
    check_positive_int,
)

#: Default number of reverse samples generated per engine call.  Large
#: enough to amortize NumPy dispatch over the whole batch; the price is a
#: pooled ``batch * n`` boolean visitation bitset per sampler (one byte
#: per bit — 256 MB at n = 1M), so memory-constrained callers on very
#: large graphs should dial ``sample_batch_size`` down (the bitset is
#: allocated lazily with ``np.zeros``, i.e. copy-on-write zero pages, and
#: is reused across all calls of one sampler).
DEFAULT_BATCH_SIZE = 256


@dataclass
class ExecutionContext:
    """All engine policy for one run, owned in one place.

    Parameters
    ----------
    sample_batch_size:
        (m)RR sets generated per vectorized reverse-engine call.
    mc_batch_size:
        Forward cascades (or CRN jobs) per vectorized engine call;
        ``None`` lets each forward engine pick its own default.
    mc_tolerance:
        Optional CI half-width (nodes) at which Monte-Carlo estimation
        stops early; ``None`` disables the early stop.
    reuse_pool:
        Carry re-validated mRR pools across adaptive rounds (TRIM/TRIM-B).
    jobs:
        Worker processes for the parallel runtime.  ``None`` keeps every
        engine on its historical in-process single-stream route; any
        explicit value routes through the chunk-seeded parallel scheme,
        whose output is identical for every worker count (``jobs=1`` runs
        the same chunks in-process).
    kernel_backend:
        Per-level labeled-BFS backend (see :mod:`repro.kernels`):
        ``"auto"`` (default) picks the njit-compiled kernels when numba is
        importable and the graph is large enough, silently falling back to
        the numpy reference closures otherwise; ``"numpy"`` / ``"numba"`` /
        ``"python"`` pin the backend (pinning ``"numba"`` without numba
        raises at the first engine call).  Outputs are bit-identical
        across backends, so this is pure performance policy.
    fault_policy:
        Supervision knobs for the parallel runtime
        (:class:`~repro.parallel.runtime.FaultPolicy`: the per-chunk
        timeout, the pool-rebuild budget after which the surviving chunks
        run in-process, the shared-segment byte budget).  ``None`` uses
        the policy defaults.  Pure recovery policy: results are
        bit-identical under any policy because rebuilt and degraded
        chunks replay their chunk-indexed seeds.
    fault_injection:
        A :class:`~repro.testing.faults.FaultInjection` chaos spec wrapped
        around worker-pool submissions — tests and the chaos gate only;
        leave ``None`` in production runs.
    """

    sample_batch_size: int = DEFAULT_BATCH_SIZE
    mc_batch_size: Optional[int] = None
    mc_tolerance: Optional[float] = None
    reuse_pool: bool = True
    jobs: Optional[int] = None
    kernel_backend: str = "auto"
    fault_policy: Optional[FaultPolicy] = None
    fault_injection: Optional[FaultInjection] = None
    #: Optional persistent artifact store (:class:`repro.store.PoolStore`).
    #: When set, the (m)RR sampler, the CRN evaluator, and the harness check
    #: it before regenerating pools / realization batches; hits are
    #: bit-identical by construction (content-addressed on the exact
    #: generation recipe, RNG state included).  ``None`` disables caching.
    pool_store: Optional[PoolStore] = None
    #: The run's counters and decisions, read through :attr:`diagnostics`.
    #: Contexts derived by :meth:`replace` / :meth:`sequential` share it; a
    #: pickled context starts an empty one, whose delta a worker chunk
    #: ships back.
    telemetry: Telemetry = field(
        default_factory=Telemetry, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_positive_int(self.sample_batch_size, "sample_batch_size")
        check_optional_positive_int(self.mc_batch_size, "mc_batch_size")
        check_positive_float(self.mc_tolerance, "mc_tolerance")
        check_jobs(self.jobs)
        if self.kernel_backend not in kernels.KERNEL_BACKENDS:
            raise ConfigurationError(
                f"kernel_backend must be one of {kernels.KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.fault_policy is not None:
            from repro.parallel.runtime import FaultPolicy

            if not isinstance(self.fault_policy, FaultPolicy):
                raise ConfigurationError(
                    f"fault_policy must be a FaultPolicy, "
                    f"got {type(self.fault_policy).__name__}"
                )
        if self.fault_injection is not None:
            from repro.testing.faults import FaultInjection

            if not isinstance(self.fault_injection, FaultInjection):
                raise ConfigurationError(
                    f"fault_injection must be a FaultInjection, "
                    f"got {type(self.fault_injection).__name__}"
                )
        if self.pool_store is not None:
            from repro.store import PoolStore

            if not isinstance(self.pool_store, PoolStore):
                raise ConfigurationError(
                    f"pool_store must be a PoolStore, "
                    f"got {type(self.pool_store).__name__}"
                )
        self._runtime: Optional[ParallelRuntime] = None
        self._owns_runtime: bool = False
        self._closed: bool = False
        self._kernel_base = kernels.KERNEL_TELEMETRY.snapshot()

    # ------------------------------------------------------------------
    # Parallel runtime lifecycle
    # ------------------------------------------------------------------

    @property
    def runtime(self) -> Optional[ParallelRuntime]:
        """The context's :class:`~repro.parallel.runtime.ParallelRuntime`.

        ``None`` when ``jobs`` is ``None`` (the historical in-process
        route).  Otherwise created lazily on first access and owned by this
        context — :meth:`close` (or the ``with`` block) releases its worker
        pool and shared-memory segments.  A runtime handed in through
        :meth:`attach_runtime` is used but never closed here.
        """
        if self._runtime is None and self.jobs is not None and not self._closed:
            from repro.parallel.runtime import ParallelRuntime

            self._runtime = ParallelRuntime(
                self.jobs,
                fault_policy=self.fault_policy,
                injection=self.fault_injection,
            )
            self._owns_runtime = True
        return self._runtime

    def attach_runtime(self, runtime: Optional[ParallelRuntime]) -> ExecutionContext:
        """Use an externally owned runtime instead of creating one.

        The caller keeps ownership: this context never closes an attached
        runtime.  Returns ``self`` for chaining.
        """
        if self._runtime is not None and self._owns_runtime:
            raise ConfigurationError(
                "context already created its own runtime; attach before "
                "the first .runtime access"
            )
        self._runtime = runtime
        self._owns_runtime = False
        if runtime is not None:
            self.jobs = runtime.jobs
        return self

    def close(self) -> None:
        """Release the owned runtime (workers + shared memory); idempotent.

        An attached runtime (see :meth:`attach_runtime`) stays referenced
        and open — its owner closes it.
        """
        self._closed = True
        if self._owns_runtime and self._runtime is not None:
            self._runtime.close()
            self._runtime = None
            self._owns_runtime = False

    def __enter__(self) -> ExecutionContext:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> ExecutionContext:
        """A fresh context with fields replaced (no runtime is inherited).

        It keeps writing into this context's :attr:`telemetry`.
        """
        derived = replace(self, **changes)
        derived.telemetry = self.telemetry
        return derived

    def sequential(self) -> ExecutionContext:
        """A copy with no parallel runtime (``jobs=None``).

        The experiment harness hands this to adaptive roster entries: they
        parallelize at the realization level, so giving their inner pool
        growth a runtime would change the sampling streams relative to the
        in-process reference.
        """
        if self.jobs is None:
            return self
        return self.replace(jobs=None)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    @property
    def diagnostics(self) -> dict[str, object]:
        """Everything this run counted and decided, as a dict built on each read.

        It merges :attr:`telemetry`; ``fault_*`` from a runtime the context
        already holds (it never creates one); ``pool_store_*`` from its
        store; and ``kernel_*``: the backend knob, numba availability and
        the dispatches since this context was built, worker chunks included.
        """
        view = self.telemetry.snapshot()
        if self._runtime is not None:
            view.update(_renamed(self._runtime.fault_stats, "", "fault_"))
        if self.pool_store is not None:
            view["pool_store_root"] = str(self.pool_store.root)
            view.update(_renamed(self.pool_store.telemetry.snapshot(), "", "pool_store_"))
        dispatched = kernels.KERNEL_TELEMETRY.since(self._kernel_base)
        view.update(
            kernel_backend=self.kernel_backend,
            kernel_numba_available=kernels.numba_available(),
            kernel_calls=_renamed(dispatched, "calls.", ""),
            kernel_jit_seconds=float(dispatched.get("jit_seconds", 0.0)),
            kernel_backends_resolved=_renamed(dispatched, "resolved.", ""),
        )
        return view

    # ------------------------------------------------------------------
    # Pickling (work units ship contexts to worker processes)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.telemetry = Telemetry()
        self._runtime = None
        self._owns_runtime = False
        self._closed = False
        self._kernel_base = kernels.KERNEL_TELEMETRY.snapshot()


def _renamed(entries: Mapping[str, object], old: str, new: str) -> dict[str, object]:
    """The entries named ``old...``, renamed to ``new...``."""
    return {
        new + name[len(old):]: value
        for name, value in entries.items()
        if name.startswith(old)
    }
