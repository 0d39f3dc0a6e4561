"""Service load gate: latency under load, backpressure, chaos, degradation.

Drives the always-on seed-selection service (``repro.service``) with
concurrent client sessions and holds it to the same bar as the offline
library: every ``ok`` reply must be **bit-identical** to a cold
``jobs=1`` run of the same request seed, no matter what the service
survived to produce it.  Five legs:

* **cold** — concurrent estimate load on a fresh server; records p50/p99
  latency and throughput, requires zero failed requests and bit-identity
  for every reply;
* **warm** — the same requests again; the cached graphs and carried mRR
  pools must be *adopted* (``carry_adopted`` > 0) and the replies must
  not change by a bit;
* **backpressure** — a one-slot server (``max_in_flight=1``,
  ``max_queue=0``) with a stalled first request; the flood behind it
  must be shed with typed ``overloaded`` replies, never a dropped
  connection, and both the stalled request and a post-shed retry must
  still succeed;
* **chaos** — a shared ``jobs=2`` worker pool under a worker crash, a
  mid-request pool kill, a stalled handler, and a corrupted cache entry,
  all while the load runs; zero failures, every reply bit-identical,
  and the fault counters must prove the recovery paths actually fired;
* **degrade** — the rebuild budget at zero with an always-firing crash:
  the shared runtime runs the surviving chunks in-process, every reply
  is still bit-identical, and the replies that degraded say so
  (``meta.degraded``, counted in ``degraded_requests``).

Every run appends one record to ``BENCH_trajectory.json``.  Run::

    python benchmarks/run.py service_load                  # full profile
    python benchmarks/run.py service_load --quick --gate   # CI smoke job
"""

from __future__ import annotations

import threading
import time

from repro.diffusion.ic import IndependentCascade
from repro.experiments import datasets
from repro.parallel.runtime import FaultPolicy
from repro.runtime import ExecutionContext
from repro.sampling.mrr import estimate_truncated_spread_mrr
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.testing.faults import FaultInjection, ServiceFaultInjection
from repro.utils.timing import backoff_sleep

DATASET = "nethept-sim"
QUERIED_SEEDS = [0, 3, 7]

#: The service bar is robustness, not raw sampling throughput, so the
#: graphs stay small enough that a full five-leg pass (including the
#: deliberately stalled handlers) finishes in well under a minute.
FULL = {
    "graph_n": 600,
    "eta": 60,
    "theta": 2_000,
    "request_seeds": 24,
    "clients": 8,
    "stall_seconds": 0.6,
}
QUICK = {
    "graph_n": 200,
    "eta": 20,
    "theta": 600,
    "request_seeds": 8,
    "clients": 4,
    "stall_seconds": 0.4,
}


def _payload(request_id: str, seed: int, profile: dict) -> dict:
    return {
        "op": "estimate",
        "id": request_id,
        "seed": seed,
        "params": {
            "dataset": DATASET,
            "n": profile["graph_n"],
            "eta": profile["eta"],
            "seeds": list(QUERIED_SEEDS),
            "theta": profile["theta"],
        },
    }


def _references(profile: dict) -> dict:
    """Cold offline ``jobs=1`` estimates, one per request seed."""
    graph = datasets.load_dataset(DATASET, n=profile["graph_n"], seed=0)
    references = {}
    for seed in range(profile["request_seeds"]):
        with ExecutionContext(jobs=1) as context:
            references[seed] = estimate_truncated_spread_mrr(
                graph,
                IndependentCascade(),
                QUERIED_SEEDS,
                profile["eta"],
                theta=profile["theta"],
                seed=seed,
                context=context,
            )
    return references


def _run_load(port: int, payloads: list, clients: int) -> tuple:
    """Fan ``payloads`` over ``clients`` concurrent connections.

    Returns ``(replies, latencies_seconds, wall_seconds)`` with replies
    and latencies in payload order.  A closed connection raises out of
    the worker thread and fails the leg — dropped lines are never
    tolerated, not even under chaos.
    """
    replies: list = [None] * len(payloads)
    latencies = [0.0] * len(payloads)
    errors: list = []

    def session(offset: int) -> None:
        try:
            with ServiceClient("127.0.0.1", port, timeout=300.0) as client:
                for i in range(offset, len(payloads), clients):
                    started = time.perf_counter()
                    replies[i] = client.request(payloads[i])
                    latencies[i] = time.perf_counter() - started
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=session, args=(k,), name=f"load-client-{k}")
        for k in range(min(clients, len(payloads)))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"client session died: {errors[0]!r}") from errors[0]
    return replies, latencies, wall


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _audit(replies: list, references: dict) -> dict:
    """Failure count and bit-identity across one load pass."""
    failures = sum(1 for reply in replies if not reply.get("ok"))
    identical = all(
        reply.get("ok")
        and reply["result"]["estimate"] == references[int(reply["id"].split("-")[-1])]
        for reply in replies
    )
    return {"requests": len(replies), "failures": failures, "bit_identical": identical}


def _latency_stats(latencies: list, wall: float) -> dict:
    return {
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
        "throughput_rps": round(len(latencies) / wall, 1),
    }


def _health(port: int) -> dict:
    with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
        return client.request({"op": "health", "id": "bench-health"})["result"]


# ----------------------------------------------------------------------
# Legs
# ----------------------------------------------------------------------


def _leg_cold_warm(profile: dict, references: dict) -> tuple:
    payloads = [
        _payload(f"cold-{s}", s, profile) for s in range(profile["request_seeds"])
    ]
    repeats = [dict(p, id=p["id"].replace("cold", "warm")) for p in payloads]
    config = ServiceConfig(jobs=1, max_in_flight=4, max_queue=64)
    with ServiceThread(config) as service:
        cold_replies, cold_lat, cold_wall = _run_load(
            service.port, payloads, profile["clients"]
        )
        warm_replies, warm_lat, warm_wall = _run_load(
            service.port, repeats, profile["clients"]
        )
        health = _health(service.port)
    cold = {**_audit(cold_replies, references), **_latency_stats(cold_lat, cold_wall)}
    warm = {**_audit(warm_replies, references), **_latency_stats(warm_lat, warm_wall)}
    warm["carry_adopted"] = health["counters"]["carry_adopted"]
    warm["cache_hits"] = health["cache"]["hits"]
    return cold, warm


def _leg_backpressure(profile: dict, references: dict) -> dict:
    """One busy slot, zero queue: the flood must shed, never drop."""
    config = ServiceConfig(
        jobs=1,
        max_in_flight=1,
        max_queue=0,
        service_injections=(
            ServiceFaultInjection(
                "slow_handler", nth=0, delay_seconds=profile["stall_seconds"]
            ),
        ),
    )
    sheds = 0
    flood_ok = 0
    with ServiceThread(config) as service:
        with service.connect(timeout=120.0) as slow, service.connect(
            timeout=120.0
        ) as flood:
            slow.send(_payload("stalled-0", 0, profile))
            backoff_sleep(0.1, 1)  # let the stalled request reach admission
            attempt = 0
            while sheds == 0 and attempt < 200:
                attempt += 1
                reply = flood.request(_payload(f"flood-{attempt}-1", 1, profile))
                if reply.get("ok"):
                    flood_ok += 1
                elif reply["error"]["code"] == "overloaded":
                    sheds += 1
                else:
                    raise SystemExit(f"unexpected flood reply: {reply}")
            stalled = slow.read_reply()
            # The shed work retries once the slot frees up and must succeed.
            retry = flood.request(_payload("retry-1", 1, profile))
            for backoff in range(1, 8):
                if retry.get("ok"):
                    break
                if retry["error"]["code"] != "overloaded":
                    raise SystemExit(f"unexpected retry reply: {retry}")
                backoff_sleep(0.05, backoff)
                retry = flood.request(_payload("retry-1", 1, profile))
        health = _health(service.port)
    return {
        "sheds": sheds,
        "shed_overloaded": health["counters"]["shed_overloaded"],
        "flood_ok": flood_ok,
        "stalled_delivered": bool(
            stalled.get("ok") and stalled["result"]["estimate"] == references[0]
        ),
        "retry_ok": bool(
            retry.get("ok") and retry["result"]["estimate"] == references[1]
        ),
        "dropped_connections": 0,  # a drop raises out of the session above
    }


def _leg_chaos(profile: dict, references: dict) -> dict:
    """Crash + pool kill + stall + cache corruption under concurrent load."""
    count = profile["request_seeds"]
    payloads = [_payload(f"chaos-{s}", s, profile) for s in range(count)]
    repeats = [dict(p, id=f"rerun-{s}") for s, p in enumerate(payloads)]
    config = ServiceConfig(
        jobs=2,
        max_in_flight=4,
        max_queue=64,
        worker_injection=FaultInjection("crash", nth=0),
        service_injections=(
            ServiceFaultInjection("pool_kill", nth=1),
            ServiceFaultInjection("slow_handler", nth=2, delay_seconds=0.05),
            # Admitted index ``count`` is the first warm request of the
            # second pass — its carried pool arrives corrupted and must
            # be detected, discarded, and rebuilt.
            ServiceFaultInjection("cache_corrupt", nth=count),
        ),
    )
    with ServiceThread(config) as service:
        first, first_lat, first_wall = _run_load(
            service.port, payloads, profile["clients"]
        )
        second, second_lat, _ = _run_load(service.port, repeats, profile["clients"])
        health = _health(service.port)
    audit_first = _audit(first, references)
    audit_second = _audit(second, references)
    faults = health["runtime"]["fault_stats"]
    return {
        "requests": audit_first["requests"] + audit_second["requests"],
        "failures": audit_first["failures"] + audit_second["failures"],
        "bit_identical": audit_first["bit_identical"]
        and audit_second["bit_identical"],
        "rebuilds": faults["rebuilds"],
        "carry_discarded": health["counters"]["carry_discarded"],
        "cache_invalidations": health["cache"]["invalidations"],
        **_latency_stats(first_lat + second_lat, first_wall),
    }


def _leg_degrade(profile: dict, references: dict) -> dict:
    """Exhausted rebuild budget: the surviving chunks run in-process."""
    payloads = [_payload(f"degrade-{s}", s, profile) for s in range(4)]
    config = ServiceConfig(
        jobs=2,
        fault_policy=FaultPolicy(chunk_timeout=60.0, max_rebuilds=0),
        worker_injection=FaultInjection("crash", nth=0, attempts=(0, 1, 2, 3)),
    )
    with ServiceThread(config) as service:
        replies, _, _ = _run_load(service.port, payloads, 2)
        health = _health(service.port)
    return {
        **_audit(replies, references),
        "degraded_requests": health["counters"]["degraded_requests"],
        "degraded_chunks": health["runtime"]["fault_stats"]["degraded_chunks"],
        "status": health["status"],
    }


def measure(profile: dict, seed: int = 0) -> dict:
    references = _references(profile)
    cold, warm = _leg_cold_warm(profile, references)
    legs = {
        "cold": cold,
        "warm": warm,
        "backpressure": _leg_backpressure(profile, references),
        "chaos": _leg_chaos(profile, references),
        "degrade": _leg_degrade(profile, references),
    }
    return {
        "graph_n": profile["graph_n"],
        "theta": profile["theta"],
        "request_seeds": profile["request_seeds"],
        "clients": profile["clients"],
        "legs": legs,
    }


#: Rows over the flattened ``measure()`` paths (see ``benchmarks/run.py``).
CHECKS = ()

#: Every leg holds the robustness bar, all hardware-independent.
GATES = (
    # Zero failed requests on the ok-path legs (cold, warm, chaos,
    # degrade), every reply bit-identical to the offline reference.
    ("legs/*/failures", "==", 0),
    ("legs/*/bit_identical", "==", True),
    # The warm pass adopts cached mRR pools.
    ("legs/warm/carry_adopted", ">=", 1),
    # At least one typed shed, no dropped line, no lost work.
    ("legs/backpressure/sheds", ">=", 1),
    ("legs/backpressure/dropped_connections", "==", 0),
    ("legs/backpressure/stalled_delivered", "==", True),
    ("legs/backpressure/retry_ok", "==", True),
    # Fault counters prove each recovery path ran: injected pool faults
    # forced a rebuild, the corrupted cache entry was discarded, and pool
    # exhaustion degraded requests in-process.
    ("legs/chaos/rebuilds", ">=", 1),
    ("legs/chaos/cache_invalidations", ">=", 1),
    ("legs/chaos/carry_discarded", ">=", 1),
    ("legs/degrade/degraded_requests", ">=", 1),
    ("legs/degrade/degraded_chunks", ">=", 1),
)
