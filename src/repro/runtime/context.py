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
* **storage** — the optional persistent ``pool_store``, and
  :meth:`note_graph`, which records each graph's dtype decision in the
  aggregated :attr:`diagnostics` sink.

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

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Optional, Union, cast

if TYPE_CHECKING:
    from repro.graph.digraph import DiGraph
    from repro.parallel.runtime import FaultPolicy, ParallelRuntime
    from repro.runtime.planner import PlanDecision
    from repro.store import PoolStore
    from repro.testing.faults import FaultInjection

from repro.errors import ConfigurationError
from repro.kernels import KERNEL_BACKENDS, numba_available, snapshot_stats
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
        (:class:`~repro.parallel.runtime.FaultPolicy`: per-chunk timeout,
        retry and rebuild budgets, degrade-vs-raise on exhaustion, the
        shared-segment byte budget).  ``None`` uses the policy defaults.
        Pure recovery policy: results are bit-identical under any policy
        because recovered chunks replay their chunk-indexed seeds.
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
    #: Aggregated diagnostics sink: engines tally counters here (mRR pool
    #: builds and carry-over totals via ``build_round_pool``) and sweeps
    #: record decisions (the graph's storage/dtype choice via
    #: :meth:`note_graph`).  Parent-side only: contexts pickled into
    #: worker processes carry a *copy* of the dict, so worker-side tallies
    #: stay in the worker.
    diagnostics: dict[str, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.sample_batch_size, "sample_batch_size")
        check_optional_positive_int(self.mc_batch_size, "mc_batch_size")
        check_positive_float(self.mc_tolerance, "mc_tolerance")
        check_jobs(self.jobs)
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ConfigurationError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
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
        """A fresh context with fields replaced (no runtime is inherited)."""
        return replace(self, **changes)

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
    # Planning
    # ------------------------------------------------------------------

    @classmethod
    def from_plan(
        cls,
        graph: DiGraph,
        model: object,
        *,
        calibration: object = None,
        **overrides: Any,
    ) -> ExecutionContext:
        """Build a context whose knobs are chosen by the execution planner.

        The planner (:mod:`repro.runtime.planner`) picks
        ``sample_batch_size``, ``mc_batch_size``, ``jobs``, and
        ``kernel_backend`` from the graph's statistics (n, m, degree skew)
        and the diffusion model, using measured calibration data when
        ``calibration`` (a path or a loaded
        :class:`~repro.runtime.planner.CalibrationTable`) is usable and a
        conservative static heuristic otherwise.  Explicit ``overrides``
        always win over planned values; the decision lands in
        :attr:`diagnostics` via :meth:`note_plan`.
        """
        from repro.runtime.planner import plan

        decision = plan(graph, model, calibration=calibration)
        knobs: dict[str, Any] = decision.knobs()
        knobs.update(overrides)
        context = cls(**knobs)
        context.note_plan(decision)
        return context

    def note_plan(self, decision: PlanDecision) -> None:
        """Record what the planner chose and why (``plan_*`` diagnostics)."""
        self.record(
            plan_source=decision.source,
            plan_reason=decision.reason,
            plan_sample_batch_size=decision.sample_batch_size,
            plan_mc_batch_size=decision.mc_batch_size,
            plan_jobs=decision.jobs,
            plan_kernel_backend=decision.kernel_backend,
            plan_fixture=decision.fixture,
            plan_distance=decision.distance,
        )

    def note_store(self) -> None:
        """Record the pool store's activity (``pool_store_*`` diagnostics).

        The persistence companion of :meth:`note_kernels` /
        :meth:`note_faults`: copies the store's counters (hits, misses,
        stores, evictions, corrupt discards, bytes moved) into the
        diagnostics sink.  No-op without a store.
        """
        if self.pool_store is None:
            return
        self.record(pool_store_root=str(self.pool_store.root))
        self.record(
            **{
                f"pool_store_{key}": value
                for key, value in self.pool_store.stats.as_dict().items()
            }
        )

    # ------------------------------------------------------------------
    # Diagnostics sink
    # ------------------------------------------------------------------

    def record(self, **entries: object) -> None:
        """Merge diagnostic entries into the aggregated sink."""
        self.diagnostics.update(entries)

    def tally(self, name: str, amount: Union[int, float] = 1) -> None:
        """Accumulate a numeric counter in the diagnostics sink."""
        current = cast("Union[int, float]", self.diagnostics.get(name, 0))
        self.diagnostics[name] = current + amount

    def note_graph(self, graph: DiGraph, label: str = "graph") -> None:
        """Record a graph's storage decision (dtype choices, byte size)."""
        self.record(**{
            f"{label}_storage": graph.storage,
            f"{label}_index_dtype": str(graph.index_dtype),
            f"{label}_prob_dtype": str(graph.prob_dtype),
            f"{label}_csr_nbytes": graph.csr_nbytes,
        })

    def note_kernels(self, since: Optional[dict[str, Any]] = None) -> None:
        """Record the kernel-backend decision and dispatch activity.

        The companion of :meth:`note_graph` for the compiled-kernel layer:
        stores this context's ``kernel_backend`` knob, whether numba is
        importable here, and a snapshot of the process-wide
        :data:`repro.kernels.KERNEL_STATS` (per-driver kernel call counts,
        JIT compile seconds, backend resolutions), counted from ``since``
        (a :func:`~repro.kernels.snapshot_stats` taken earlier) when given.
        Sweeps snapshot on entry and call it once at the end of a run, so
        the diagnostics show what that run executed in this process.
        """
        stats = snapshot_stats(since)
        self.record(
            kernel_backend=self.kernel_backend,
            kernel_numba_available=numba_available(),
            kernel_calls=stats["calls"],
            kernel_jit_seconds=stats["jit_seconds"],
            kernel_backends_resolved=stats["resolved"],
        )

    def note_faults(self) -> None:
        """Record the parallel runtime's recovery activity.

        The supervision companion of :meth:`note_graph` /
        :meth:`note_kernels`: copies the runtime's fault counters
        (retries, timeouts, pool rebuilds, republished segments, degraded
        chunks, recovery wall-time, swept orphans — see
        :attr:`~repro.parallel.runtime.ParallelRuntime.fault_stats`) into
        the diagnostics sink as ``fault_*`` entries.  Sweeps call it at
        the end of a run, so a recovered run is distinguishable from a
        clean one even though their results are bit-identical.  No-op on
        the in-process route (no runtime ever existed, nothing to report);
        reads an already-created runtime but never creates one.
        """
        runtime = self._runtime
        if runtime is None:
            return
        self.record(
            **{f"fault_{key}": value for key, value in runtime.fault_stats.items()}
        )

    # ------------------------------------------------------------------
    # Pickling (work units ship contexts to worker processes)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._runtime = None
        self._owns_runtime = False
        self._closed = False
