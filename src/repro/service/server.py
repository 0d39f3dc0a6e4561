"""The always-on seed-selection server.

A stdlib-asyncio NDJSON server (TCP or stdio; see
:mod:`repro.service.protocol`) built around one robustness spine:

* **admission control** — at most ``max_in_flight`` requests compute at
  once (an :class:`asyncio.Semaphore` over a thread pool of the same
  size) and at most ``max_queue`` more may wait; beyond that a request
  is *shed* with a typed ``overloaded`` reply — the connection is never
  dropped;
* **deadlines** — each request's ``deadline_ms`` becomes a monotonic
  :class:`~repro.utils.timing.Deadline` at admission (so queue time
  counts).  Expiry while queued answers without running anything; expiry
  while running abandons the compute thread (it finishes in the
  background, bounded by the executor) and answers immediately — both
  are structured ``deadline_exceeded`` replies naming the stage;
* **cross-request cache** — graphs and finished mRR pools in a
  byte-budget LRU (:mod:`repro.service.cache`); a pool hit is an exact
  replay, integrity-checked and installed as is.  All cache access
  happens on the event loop thread, so no lock is needed;
* **persistence** — with ``pool_store`` set, estimates write their pools
  through the :class:`~repro.store.PoolStore` (the recipe-keyed path the
  samplers already have), so after a restart the first estimate for a
  key loads its pool from disk, bit-identical to the cold run;
* **graceful degradation** — the shared runtime recovers from a broken
  or hung worker pool itself (rebuilds up to its
  :class:`~repro.parallel.runtime.FaultPolicy` budget, then runs the
  surviving chunks in-process — bit-identical bytes by the chunk-indexed
  seeding invariant).  A reply whose own dispatches degraded at least one
  chunk says ``meta.degraded: true``; such requests are counted in
  ``degraded_requests``, and ``health`` reads ``"degraded"`` once there
  has been one;
* **drain-then-exit** — SIGTERM/SIGINT (or EOF in stdio mode) stops
  accepting work, lets every admitted request finish and flush its
  reply, then tears down the executor, the runtime, and the sockets.

Determinism contract: each request derives its own
:class:`~repro.runtime.context.ExecutionContext` from the request seed,
and every context routes sampling through the chunk-seeded scheme
(``jobs >= 1``), so the ``result`` body is bit-identical to a cold
offline ``jobs=1`` run of the same request no matter the server's
``--jobs``, cache state, or any mid-request recovery.  With a shared
runtime, engine dispatch is serialized by a lock (the runtime is not
thread-safe); parallelism then comes from the worker pool, while
``jobs=1`` services run requests concurrently across handler threads.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional, TextIO

from repro.errors import (
    ConfigurationError,
    GraphError,
    InfeasibleTargetError,
    ReproError,
    SamplingError,
    ServiceError,
)
from repro.graph.digraph import DiGraph
from repro.parallel.runtime import FaultPolicy, ParallelRuntime
from repro.runtime.context import ExecutionContext
from repro.runtime.telemetry import Telemetry
from repro.sampling.mrr import CarriedMRRPool
from repro.service import handlers
from repro.service.cache import DEFAULT_CACHE_BYTES, ServiceCache
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
)
from repro.store import PoolStore
from repro.testing.faults import (
    FaultInjection,
    ServiceFaultInjection,
    corrupt_carried_pool,
    kill_one_worker,
    service_slow_handler,
)
from repro.utils.timing import Deadline, Stopwatch


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one server instance needs, frozen at construction."""

    host: str = "127.0.0.1"
    port: int = 0
    stdio: bool = False
    jobs: int = 1
    max_in_flight: int = 4
    max_queue: int = 16
    cache_bytes: int = DEFAULT_CACHE_BYTES
    kernel_backend: str = "auto"
    #: Persistent artifact store directory (None = memory-only cache).
    #: Estimates write their pools through it, so they survive restarts
    #: (see ``--pool-store``).
    pool_store: Optional[str] = None
    fault_policy: Optional[FaultPolicy] = None
    #: Chaos only: wrapped around the shared runtime's worker submissions.
    worker_injection: Optional[FaultInjection] = None
    #: Chaos only: service-level faults fired by admitted-request index.
    service_injections: tuple[ServiceFaultInjection, ...] = ()

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )


_REQUEST_COUNTERS = (
    "requests_total", "requests_ok", "requests_failed", "shed_overloaded",
    "deadline_queued", "deadline_running", "degraded_requests",
    "carry_adopted", "carry_discarded", "shutting_down_replies",
    "internal_errors",
)


class SeedService:
    """One server instance; :meth:`run` is the whole lifecycle."""

    def __init__(self, config: ServiceConfig, log: Optional[TextIO] = None):
        self.config = config
        self.port: Optional[int] = None
        #: Set once the listener is bound (TCP) or stdio is wired — safe
        #: to read from other threads (tests start :meth:`run` in one).
        self.ready = threading.Event()
        self.cache = ServiceCache(max_bytes=config.cache_bytes)
        #: Request counters, reported under ``health.counters``.
        self.telemetry = Telemetry(**dict.fromkeys(_REQUEST_COUNTERS, 0))
        self.store: Optional[PoolStore] = (
            PoolStore(config.pool_store) if config.pool_store else None
        )
        self._log = log if log is not None else sys.stderr
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_in_flight,
            thread_name_prefix="repro-service",
        )
        self._pending = 0
        self._admitted = 0
        self._draining = False
        self._conn_tasks: set[asyncio.Task[None]] = set()
        # Shared-runtime state (jobs >= 2): guarded by _runtime_lock
        # because compute happens on handler threads.
        self._runtime: Optional[ParallelRuntime] = None
        self._runtime_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop accepting work; finish what was admitted; then exit.

        Idempotent; must be called on the event-loop thread (the signal
        handlers are; tests use ``loop.call_soon_threadsafe``).
        """
        if self._draining:
            return
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run(self) -> None:
        """Serve until drained (signal or stdio EOF), then clean up."""
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.config.max_in_flight)
        self._drain_requested = asyncio.Event()
        installed: list[signal.Signals] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.begin_drain)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
        try:
            if self.config.stdio:
                await self._run_stdio()
            else:
                await self._run_tcp()
        finally:
            for signum in installed:
                self._loop.remove_signal_handler(signum)
            self._executor.shutdown(wait=True, cancel_futures=True)
            with self._runtime_lock:
                if self._runtime is not None:
                    self._runtime.close()
                    self._runtime = None

    async def _run_tcp(self) -> None:
        server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=2 * MAX_LINE_BYTES,
        )
        self.port = int(server.sockets[0].getsockname()[1])
        self.ready.set()
        print(
            f"repro-serve: listening on {self.config.host}:{self.port}",
            file=self._log,
            flush=True,
        )
        assert self._drain_requested is not None
        async with server:
            await self._drain_requested.wait()
            server.close()
            await server.wait_closed()
            await self._drain_in_flight()

    async def _run_stdio(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=2 * MAX_LINE_BYTES)
        protocol = asyncio.StreamReaderProtocol(reader)
        await loop.connect_read_pipe(lambda: protocol, sys.stdin)
        transport, write_protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(transport, write_protocol, None, loop)
        self.ready.set()
        print("repro-serve: serving on stdio", file=self._log, flush=True)
        assert self._drain_requested is not None
        while not self._draining:
            line_task = asyncio.ensure_future(reader.readline())
            drain_task = asyncio.ensure_future(self._drain_requested.wait())
            done, _ = await asyncio.wait(
                {line_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
            )
            drain_task.cancel()
            if line_task not in done:
                line_task.cancel()
                break
            line = line_task.result()
            if not line:  # EOF: the stdio session is over — drain.
                self.begin_drain()
                break
            if line.strip():
                writer.write(encode_reply(await self._serve_line(line)))
                await writer.drain()
        await self._drain_in_flight()
        writer.close()

    async def _drain_in_flight(self) -> None:
        """Wait for every admitted request to settle and reply."""
        while self._pending > 0:
            await asyncio.sleep(0.02)
        if self._conn_tasks:
            # Replies were computed; give connection tasks a beat to
            # flush them, then cancel whatever is idle in readline().
            _, still_open = await asyncio.wait(self._conn_tasks, timeout=0.5)
            for task in still_open:
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversize line with no newline in sight: reply once,
                    # then close — there is no way to resynchronize.
                    writer.write(encode_reply(error_reply(
                        None, "invalid_request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                writer.write(encode_reply(await self._serve_line(line)))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Request pipeline (event-loop thread unless noted)
    # ------------------------------------------------------------------

    async def _serve_line(self, line: bytes) -> dict[str, Any]:
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.telemetry.add("requests_failed")
            return error_reply(exc.request_id, exc.code, str(exc))
        return await self._serve_request(request)

    async def _serve_request(self, request: Request) -> dict[str, Any]:
        self.telemetry.add("requests_total")
        if request.op == "health":
            return ok_reply(request.id, "health", self._health(), 0.0)
        if self._draining:
            self.telemetry.add("shutting_down_replies")
            self.telemetry.add("requests_failed")
            return error_reply(
                request.id, "shutting_down",
                "server is draining; no new work is admitted",
            )
        # Admission: bounded queue, load shedding, never a dropped line.
        if self._pending >= self.config.max_in_flight + self.config.max_queue:
            self.telemetry.add("shed_overloaded")
            self.telemetry.add("requests_failed")
            return error_reply(
                request.id, "overloaded",
                f"admission queue is full ({self._pending} pending); retry",
                retry_after_ms=100,
            )
        self._pending += 1
        admitted_index = self._admitted
        self._admitted += 1
        deadline = Deadline.after(
            None if request.deadline_ms is None else request.deadline_ms / 1000.0
        )
        try:
            reply = await self._execute(request, admitted_index, deadline)
        finally:
            self._pending -= 1
        if reply.get("ok"):
            self.telemetry.add("requests_ok")
        else:
            self.telemetry.add("requests_failed")
        return reply

    async def _execute(
        self, request: Request, admitted_index: int, deadline: Deadline
    ) -> dict[str, Any]:
        assert self._semaphore is not None and self._loop is not None
        watch = Stopwatch()
        try:
            plan = handlers.build_plan(request)
        except ProtocolError as exc:
            return error_reply(request.id, exc.code, str(exc))
        async with self._semaphore:
            if deadline.expired:
                self.telemetry.add("deadline_queued")
                return error_reply(
                    request.id, "deadline_exceeded",
                    f"deadline of {request.deadline_ms:.0f}ms expired in the "
                    f"admission queue",
                    stage="queued",
                )
            graph = self.cache.get(plan.graph_key)
            carry = self._carry_for(request, plan, admitted_index)
            future = self._loop.run_in_executor(
                self._executor,
                self._compute, plan, request.op, admitted_index, graph, carry,
            )
            try:
                with watch:
                    outcome = await asyncio.wait_for(
                        future, timeout=deadline.remaining()
                    )
            except asyncio.TimeoutError:
                self.telemetry.add("deadline_running")
                return error_reply(
                    request.id, "deadline_exceeded",
                    f"deadline of {request.deadline_ms:.0f}ms expired while "
                    f"running (compute abandoned)",
                    stage="running",
                )
            except InfeasibleTargetError as exc:
                return error_reply(request.id, "infeasible", str(exc))
            except (ConfigurationError, SamplingError, GraphError) as exc:
                return error_reply(request.id, "invalid_request", str(exc))
            except ServiceError as exc:
                return error_reply(request.id, exc.code, str(exc))
            except ReproError as exc:
                return error_reply(request.id, "internal", str(exc))
            except Exception as exc:
                # A bug, not a bad request: answer it on the open
                # connection instead of killing the connection task.
                self.telemetry.add("internal_errors")
                return error_reply(
                    request.id, "internal", f"{type(exc).__name__}: {exc}"
                )
        # Settle (loop thread): cache writes and the reply envelope.
        result, loaded_graph, carry_out, carry_status, degraded = outcome
        if graph is None and loaded_graph is not None:
            self.cache.put(
                plan.graph_key, loaded_graph, int(loaded_graph.csr_nbytes)
            )
        if isinstance(plan, handlers.EstimatePlan):
            if carry_status == handlers.CARRY_DISCARDED:
                self.telemetry.add("carry_discarded")
                self.cache.discard(plan.pool_key)
            elif carry_status == handlers.CARRY_ADOPTED:
                self.telemetry.add("carry_adopted")
            if carry_out is not None:
                self.cache.put(
                    plan.pool_key, carry_out,
                    handlers.carried_pool_nbytes(carry_out),
                )
        if degraded:
            self.telemetry.add("degraded_requests")
        reply = ok_reply(request.id, request.op, result, watch.elapsed * 1000.0)
        reply["meta"] = {"carry": carry_status, "degraded": degraded}
        return reply

    def _carry_for(
        self, request: Request, plan: handlers.Plan, admitted_index: int
    ) -> Optional[CarriedMRRPool]:
        if request.op != "estimate" or not isinstance(
            plan, handlers.EstimatePlan
        ):
            return None
        carry = self.cache.get(plan.pool_key)
        if carry is not None and self._fires(admitted_index, "cache_corrupt"):
            carry = corrupt_carried_pool(carry)
        return carry

    def _fires(self, admitted_index: int, kind: str) -> bool:
        return any(
            spec.kind == kind and spec.fires(admitted_index)
            for spec in self.config.service_injections
        )

    def _injection_delay(self, admitted_index: int) -> Optional[float]:
        for spec in self.config.service_injections:
            if spec.kind == "slow_handler" and spec.fires(admitted_index):
                return spec.delay_seconds
        return None

    # ------------------------------------------------------------------
    # Compute phase (handler threads)
    # ------------------------------------------------------------------

    def _compute(
        self,
        plan: handlers.Plan,
        op: str,
        admitted_index: int,
        graph: Optional[DiGraph],
        carry: Optional[CarriedMRRPool],
    ) -> tuple[
        dict[str, Any], Optional[DiGraph], Optional[CarriedMRRPool], str, bool
    ]:
        """Pure compute; returns ``(result, loaded_graph, carry_out,
        carry_status, degraded)`` for the loop-thread settle phase."""
        delay = self._injection_delay(admitted_index)
        if delay is not None:
            service_slow_handler(delay)
        loaded: Optional[DiGraph] = None
        if graph is None:
            graph = loaded = handlers.load_graph(plan)
        runtime = self._shared_runtime()
        if runtime is None:
            result, carry_out, status = self._run_plan(graph, plan, op, None, carry)
            return result, loaded, carry_out, status, False
        # The shared runtime is not safe for concurrent dispatch:
        # serialize engine execution; parallelism comes from its worker
        # pool, not from overlapping handler threads.  Holding the lock
        # also makes the degraded-chunk delta this request's own.
        with self._runtime_lock:
            if self._fires(admitted_index, "pool_kill"):
                kill_one_worker(runtime)
            before = runtime.fault_stats["degraded_chunks"]
            result, carry_out, status = self._run_plan(
                graph, plan, op, runtime, carry
            )
            degraded = runtime.fault_stats["degraded_chunks"] > before
        return result, loaded, carry_out, status, degraded

    def _run_plan(
        self,
        graph: DiGraph,
        plan: handlers.Plan,
        op: str,
        runtime: Optional[ParallelRuntime],
        carry: Optional[CarriedMRRPool],
    ) -> tuple[dict[str, Any], Optional[CarriedMRRPool], str]:
        if isinstance(plan, handlers.EstimatePlan):
            sample_batch, store = plan.batch_size, self.store
        else:
            # Solves never write through the store: each adaptive round
            # would persist an artifact that no later request reuses.
            sample_batch, store = plan.sample_batch_size, None
        context = ExecutionContext(
            sample_batch_size=sample_batch,
            jobs=1,
            kernel_backend=self.config.kernel_backend,
            fault_policy=self.config.fault_policy,
            pool_store=store,
        )
        if runtime is not None:
            context.attach_runtime(runtime)
        try:
            if op == "estimate" and isinstance(plan, handlers.EstimatePlan):
                outcome = handlers.run_estimate(graph, plan, context, carry)
                return outcome.result, outcome.carry, outcome.carry_status
            assert isinstance(plan, handlers.SolvePlan)
            return (
                handlers.run_solve(graph, plan, context),
                None,
                handlers.CARRY_NONE,
            )
        finally:
            context.close()

    # ------------------------------------------------------------------
    # Shared-runtime lifecycle (jobs >= 2)
    # ------------------------------------------------------------------

    def _shared_runtime(self) -> Optional[ParallelRuntime]:
        if self.config.jobs < 2:
            return None
        with self._runtime_lock:
            if self._runtime is None:
                self._runtime = ParallelRuntime(
                    self.config.jobs,
                    fault_policy=self.config.fault_policy,
                    injection=self.config.worker_injection,
                )
            return self._runtime

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def _health(self) -> dict[str, Any]:
        with self._runtime_lock:
            runtime = self._runtime
            fault_stats = None if runtime is None else runtime.fault_stats
        counters = self.telemetry.snapshot()
        if self._draining:
            status = "draining"
        elif counters["degraded_requests"]:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "jobs": self.config.jobs,
            "pending": self._pending,
            "counters": counters,
            "cache": {
                "entries": len(self.cache),
                "bytes": self.cache.total_bytes,
                **self.cache.telemetry.snapshot(),
            },
            "store": (
                None
                if self.store is None
                else {
                    "root": str(self.store.root),
                    **self.store.telemetry.snapshot(),
                }
            ),
            "runtime": {"fault_stats": fault_stats},
        }


def run_service(
    config: ServiceConfig,
    log: Optional[TextIO] = None,
    on_ready: Optional[Callable[[SeedService], None]] = None,
) -> int:
    """Blocking entry point used by the CLI ``serve`` command.

    Runs one :class:`SeedService` to completion (drain via signal or
    stdio EOF) and returns a process exit code.  ``on_ready`` fires on
    the event-loop thread right after the listener binds — the CLI
    prints the bound port there.
    """
    service = SeedService(config, log=log)

    async def _main() -> None:
        watcher: Optional[asyncio.Task[None]] = None
        if on_ready is not None:
            callback = on_ready

            async def _watch_ready() -> None:
                while not service.ready.is_set():
                    await asyncio.sleep(0.01)
                callback(service)

            watcher = asyncio.ensure_future(_watch_ready())
        try:
            await service.run()
        finally:
            if watcher is not None:
                watcher.cancel()

    asyncio.run(_main())
    return 0
