"""The three benchmark workloads, each driving a public entry point.

A workload is a sequence of *units* — one adaptive solve (``solve-ic``),
one cold-then-warm sweep cycle against a fresh pool store (``sweep``), one
pass of closed-loop requests (``serve``) — generated from the workload
seed.  :meth:`Workload.run_unit` executes one unit and checks its outputs;
the driver in ``run.py`` decides how many units fit in ``--seconds``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro import ASTI, ExecutionContext, IndependentCascade
from repro.experiments import datasets
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sweep
from repro.sampling.mrr import estimate_truncated_spread_mrr
from repro.service import ServiceClient
from tracer import Tracer

#: Full-size inputs (the measured profile) and the self-test's small ones.
PROFILES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "solve-ic": {"n": None, "eta": 500, "min_units": 5},
        "sweep": {"n": None, "realizations": 4, "min_units": 3},
        "serve": {
            "n": None,
            "estimate_eta": 120,
            "theta": 4000,
            "solve_eta": 60,
            "pass_requests": 100,
            "solve_seeds": 40,
            "min_units": 3,
        },
    },
    "quick": {
        "solve-ic": {"n": 300, "eta": 30, "min_units": 2},
        "sweep": {"n": 300, "realizations": 2, "min_units": 1},
        "serve": {
            "n": 300,
            "estimate_eta": 30,
            "theta": 500,
            "solve_eta": 15,
            "pass_requests": 20,
            "solve_seeds": 4,
            "min_units": 1,
        },
    },
}


@dataclass
class UnitResult:
    """What one unit of work produced."""

    seconds: float
    latencies_ms: list[float] = field(default_factory=list)
    #: Operations completed, for ``throughput_per_s``.
    ops: int = 0
    seed_counts: list[int] = field(default_factory=list)
    attempted: int = 1
    failures: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    #: serve only: ``(op, latency_ms, reply_ms, carry)`` per ok request.
    requests: list[tuple[str, float, float, str]] = field(default_factory=list)


#: Latency recorded for a failed request: it misses any latency limit.
MISSED_MS = 1e9


def _maxrss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_graph(dataset: str, n: Optional[int]):
    return datasets.load_dataset(dataset, n=n, seed=0)


class Workload:
    """Base class: set-up, unit inputs, one unit, tracing, teardown."""

    name = ""
    #: ROADMAP layers this workload never enters (prediction: no change).
    bypasses: tuple[str, ...] = ()

    def __init__(self, profile: dict[str, Any], scratch: Path):
        self.profile = profile
        self.scratch = scratch
        self.tracer: Optional[Tracer] = None

    def setup(self) -> float:
        """One timed set-up; returns its seconds.  Called several times."""
        raise NotImplementedError

    def inputs(self, seed: int) -> Iterator[Any]:
        """Unit inputs from the workload seed; by default one seed per unit."""
        rng = random.Random(seed)
        while True:
            yield rng.randrange(2**31)

    def run_unit(self, item: Any) -> UnitResult:
        raise NotImplementedError

    def start(self, tracer: Optional[Tracer]) -> None:
        """Begin measuring; ``tracer`` is set when traced units will run."""
        self.tracer = tracer

    def unit(self, item: Any, traced: bool = False) -> UnitResult:
        """:meth:`run_unit`, optionally with the tracer installed and a
        root span around it."""
        if not traced:
            return self.run_unit(item)
        assert self.tracer is not None
        self.tracer.install()
        try:
            return self.tracer.span("bench.unit", self.run_unit, item)
        finally:
            self.tracer.uninstall()

    def stop(self) -> dict[str, Any]:
        """End measuring; returns the ``trace`` (spans and counts) if any."""
        tracer, self.tracer = self.tracer, None
        if tracer is None:
            return {"trace": None}
        return {"trace": {"spans": tracer.summary(), "counts": dict(tracer.counts)}}

    def finish(self) -> list[str]:
        """Checks that need the whole run; returns failure messages."""
        return []

    def peak_rss_mb(self) -> float:
        return _maxrss_mb(resource.RUSAGE_SELF) + _maxrss_mb(resource.RUSAGE_CHILDREN)

    def close(self) -> None:
        """Release processes and files (idempotent)."""


class SolveIC(Workload):
    """Back-to-back in-process ASTI solves (the paper's headline operation)."""

    name = "solve-ic"
    bypasses = ("store I/O", "dispatch/IPC", "CRN sweeps")

    def setup(self) -> float:
        started = time.perf_counter()
        self.graph = load_graph("nethept-sim", self.profile["n"])
        return time.perf_counter() - started

    def run_unit(self, solve_seed: int) -> UnitResult:
        eta = self.profile["eta"]
        started = time.perf_counter()
        result = ASTI(IndependentCascade(), epsilon=0.5, batch_size=1).run(
            self.graph, eta, seed=solve_seed
        )
        seconds = time.perf_counter() - started
        failures = []
        if result.spread < eta:
            failures.append(f"solve seed {solve_seed}: spread {result.spread} < eta {eta}")
        if len(set(result.seeds)) != len(result.seeds):
            failures.append(f"solve seed {solve_seed}: repeated seeds")
        return UnitResult(
            seconds=seconds,
            # Each round is one adaptive seed decision the caller waits for.
            latencies_ms=[record.seconds * 1e3 for record in result.rounds],
            ops=len(result.rounds),
            seed_counts=[result.seed_count],
            failures=failures,
        )


SWEEP_ALGORITHMS = ("ASTI", "ASTI-4", "ATEUC", "CELF")
#: Adaptive roster entries whose feasibility must be exactly 1.0 (CELF and
#: ATEUC select one fixed set and may legitimately fall short of eta).
ADAPTIVE = ("ASTI", "ASTI-4")


class FixedGraphConfig(ExperimentConfig):
    """``ExperimentConfig`` whose graph stays at ``graph_seed=0``.

    ``run_sweep`` builds its graph from the sweep seed; every workload holds
    the registry graph fixed, so only the realizations and the algorithms'
    sampling streams follow the sweep seed.
    """

    def build_graph(self):
        return load_graph(self.dataset, self.graph_n)


class Sweep(Workload):
    """``run_sweep`` cold then warm against a fresh pool store, jobs=2."""

    name = "sweep"
    bypasses = ()

    def setup(self) -> float:
        started = time.perf_counter()
        load_graph("epinions-sim", self.profile["n"])
        return time.perf_counter() - started

    def run_unit(self, sweep_seed: int) -> UnitResult:
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            config = FixedGraphConfig(
                dataset="epinions-sim",
                model_name="LT",
                eta_fractions=(0.05, 0.10),
                algorithms=SWEEP_ALGORITHMS,
                realizations=self.profile["realizations"],
                graph_n=self.profile["n"],
                jobs=2,
                pool_store=str(store),
                seed=sweep_seed,
            )
            started = time.perf_counter()
            cold = run_sweep(config)
            cold_s = time.perf_counter() - started
            files = [p for p in store.rglob("*") if p.is_file()]
            store_bytes = sum(p.stat().st_size for p in files)
            started = time.perf_counter()
            warm = run_sweep(config)
            warm_s = time.perf_counter() - started
        finally:
            shutil.rmtree(store, ignore_errors=True)
        failures = []
        for algorithm in SWEEP_ALGORITHMS:
            for metric in ("seeds", "spread", "feasibility"):
                if cold.series(algorithm, metric) != warm.series(algorithm, metric):
                    failures.append(
                        f"sweep seed {sweep_seed}: warm {algorithm} {metric} "
                        f"differs from cold"
                    )
        for algorithm in ADAPTIVE:
            if any(rate != 1.0 for rate in cold.series(algorithm, "feasibility")):
                failures.append(
                    f"sweep seed {sweep_seed}: {algorithm} feasibility below 1.0"
                )
        solves = sum(
            len(outcome.runs)
            for result in (cold, warm)
            for point in result.outcomes.values()
            for outcome in point.values()
        )
        seed_counts = [
            run.seed_count
            for point in cold.outcomes.values()
            for algorithm in ADAPTIVE
            for run in point[algorithm].runs
        ]
        return UnitResult(
            seconds=cold_s + warm_s,
            # Per-solve times are a few equal-sized clusters (one per
            # algorithm and eta), so their percentiles would sit on cluster
            # edges; the latency a sweep user waits for is a cold pass.
            latencies_ms=[cold_s * 1e3],
            ops=solves,
            seed_counts=seed_counts,
            attempted=2,
            failures=failures,
            extra={
                "sweep.cold_s": cold_s,
                "sweep.warm_s": warm_s,
                "store.entries": float(len(files)),
                "store.bytes": float(store_bytes),
            },
        )


class Serve(Workload):
    """``repro serve`` as a subprocess, two blocking closed-loop clients.

    Each pass is 80% ``estimate`` over 8 request seeds (most replies adopt
    a cached pool) and 20% ``solve``; the workload seed drives the mix.
    Solve seeds cycle through a fixed pool: the server never caches a
    solve, so a repeated solve seed costs it what a fresh one does, the
    pool keeps the bit-for-bit reference check affordable, and a fixed
    pool keeps the solve work per run the same for every workload seed.
    Traced units go to a second server run under ``traced_server.py``,
    which installs the tracer in the server process.
    """

    name = "serve"
    bypasses = ("store I/O", "dispatch/IPC", "CRN sweeps")
    clients = 2

    def __init__(self, profile: dict[str, Any], scratch: Path):
        super().__init__(profile, scratch)
        #: Running servers by ``traced``: ``(process, client connections)``.
        self.servers: dict[bool, tuple[subprocess.Popen, list[ServiceClient]]] = {}
        self.connections: list[ServiceClient] = []
        #: Every ``(request, ok reply)`` pair, checked by :meth:`finish`.
        self.answered: list[tuple[dict[str, Any], dict[str, Any]]] = []
        self.server_hwm_mb = 0.0

    # -- server lifecycle ------------------------------------------------

    def _boot(self, traced: bool) -> float:
        """Start a server and connect the clients; returns seconds to the
        listening banner."""
        root = Path.cwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        if traced:
            command = [sys.executable, str(root / "perfbench" / "traced_server.py")]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        started = time.perf_counter()
        proc = subprocess.Popen(
            [*command, "--port", "0"], stdout=subprocess.PIPE, env=env, text=True
        )
        self.servers[traced] = (proc, [])
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        banner = proc.stdout.readline() if ready else ""
        seconds = time.perf_counter() - started
        if "listening on" not in banner:
            raise RuntimeError(f"server did not announce its port: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        self.servers[traced][1].extend(
            ServiceClient("127.0.0.1", port, timeout=120.0) for _ in range(self.clients)
        )
        return seconds

    def _shutdown(self, traced: bool) -> str:
        """SIGTERM (the server drains), wait, and return its remaining stdout."""
        proc, connections = self.servers.pop(traced)
        for connection in connections:
            connection.close()
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        return out or ""

    def setup(self) -> float:
        try:
            return self._boot(traced=False)
        finally:
            self._shutdown(traced=False)

    def start(self, tracer: Optional[Tracer]) -> None:
        # A traced run keeps both servers up and alternates between them;
        # the tracer itself lives in the traced server's process.
        self._boot(traced=False)
        if tracer is not None:
            self._boot(traced=True)

    def unit(self, item: Any, traced: bool = False) -> UnitResult:
        self.connections = self.servers[traced][1]
        return self.run_unit(item)

    def stop(self) -> dict[str, Any]:
        health = self.servers[False][1][0].request({"op": "health", "id": "health"})
        self.server_hwm_mb = max(self.server_hwm_mb, self._vm_hwm_mb(self.servers[False][0]))
        trace = None
        if True in self.servers:
            for line in self._shutdown(traced=True).splitlines():
                if line.startswith("perfbench-trace "):
                    trace = json.loads(line.split(" ", 1)[1])
        self._shutdown(traced=False)
        return {"trace": trace, "health": health.get("result", {})}

    @staticmethod
    def _vm_hwm_mb(proc: subprocess.Popen) -> float:
        with open(f"/proc/{proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def peak_rss_mb(self) -> float:
        return self.server_hwm_mb

    def close(self) -> None:
        for traced in list(self.servers):
            self._shutdown(traced)

    # -- request mix -----------------------------------------------------

    def inputs(self, seed: int) -> Iterator[list[dict[str, Any]]]:
        rng = random.Random(seed)
        n = self.profile["n"] or datasets.get_spec("nethept-sim").default_n
        estimate_seeds = rng.sample(range(2**31), 8)
        queried = {s: sorted(rng.sample(range(n), 3)) for s in estimate_seeds}
        solve_pool = list(range(self.profile["solve_seeds"]))
        graph = {"dataset": "nethept-sim"}
        if self.profile["n"] is not None:
            graph["n"] = self.profile["n"]
        per_pass = self.profile["pass_requests"]
        solves_per_pass = per_pass // 5
        solve_seeds: list[int] = []
        index = 0
        while True:
            # Exactly 20% solves per pass, in shuffled order; solve seeds
            # cycle through shuffled copies of the pool so every pool seed
            # is used equally often.
            ops = ["solve"] * solves_per_pass + ["estimate"] * (per_pass - solves_per_pass)
            rng.shuffle(ops)
            batch = []
            for op in ops:
                if op == "estimate":
                    request_seed = rng.choice(estimate_seeds)
                    params = {
                        **graph,
                        "eta": self.profile["estimate_eta"],
                        "seeds": queried[request_seed],
                        "theta": self.profile["theta"],
                    }
                else:
                    if not solve_seeds:
                        solve_seeds = rng.sample(solve_pool, len(solve_pool))
                    request_seed = solve_seeds.pop()
                    params = {**graph, "eta": self.profile["solve_eta"]}
                batch.append(
                    {"op": op, "id": f"r{index}", "seed": request_seed, "params": params}
                )
                index += 1
            yield batch

    def run_unit(self, batch: list[dict[str, Any]]) -> UnitResult:
        replies: dict[str, tuple[float, dict[str, Any]]] = {}
        errors: list[str] = []
        cursor = iter(batch)
        lock = threading.Lock()

        def client(connection) -> None:
            while True:
                with lock:
                    payload = next(cursor, None)
                if payload is None:
                    return
                sent = time.perf_counter()
                try:
                    reply = connection.request(payload)
                except Exception as exc:  # a dropped connection fails the request
                    errors.append(f"{payload['id']}: {exc!r}")
                    return
                replies[payload["id"]] = ((time.perf_counter() - sent) * 1e3, reply)

        threads = [threading.Thread(target=client, args=(c,)) for c in self.connections]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result = UnitResult(
            seconds=time.perf_counter() - started, attempted=len(batch), failures=errors
        )
        for payload in batch:
            latency_ms, reply = replies.get(payload["id"], (MISSED_MS, {}))
            if not reply.get("ok"):
                # A failed request counts as missing any latency limit.
                result.latencies_ms.append(MISSED_MS)
                if reply:
                    result.failures.append(f"{payload['id']}: {reply.get('error')}")
                continue
            result.latencies_ms.append(latency_ms)
            result.ops += 1
            result.requests.append(
                (payload["op"], latency_ms, reply["ms"], reply["meta"]["carry"])
            )
            self.answered.append((payload, reply))
            if payload["op"] == "solve":
                result.seed_counts.append(reply["result"]["seed_count"])
        return result

    def finish(self) -> list[str]:
        """Compare every ok reply with an in-process ``jobs=1`` reference."""
        graph = load_graph("nethept-sim", self.profile["n"])
        references: dict[tuple[str, int], Any] = {}
        failures = []
        for payload, reply in self.answered:
            op, request_seed, params = payload["op"], payload["seed"], payload["params"]
            key = (op, request_seed)
            if key not in references:
                with ExecutionContext(jobs=1) as context:
                    if op == "estimate":
                        references[key] = estimate_truncated_spread_mrr(
                            graph,
                            IndependentCascade(),
                            params["seeds"],
                            params["eta"],
                            theta=params["theta"],
                            seed=request_seed,
                            context=context,
                        )
                    else:
                        run = ASTI(IndependentCascade(), epsilon=0.5, context=context).run(
                            graph, params["eta"], seed=request_seed
                        )
                        references[key] = {
                            "seeds": [int(s) for s in run.seeds],
                            "spread": int(run.spread),
                            "marginal_spreads": [int(m) for m in run.marginal_spreads],
                        }
            result = reply["result"]
            if op == "estimate":
                matches = result["estimate"] == references[key]
            else:
                matches = all(result[k] == v for k, v in references[key].items())
                seeds = result["seeds"]
                if result["spread"] < params["eta"] or len(set(seeds)) != len(seeds):
                    failures.append(f"{payload['id']}: solve missed eta or repeated a seed")
            if not matches:
                failures.append(f"{payload['id']}: reply differs from in-process reference")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    SolveIC.name: SolveIC,
    Sweep.name: Sweep,
    Serve.name: Serve,
}
