"""Tests for the one telemetry sink (``repro.runtime.telemetry``).

Three contracts:

* **the type** — summed counters, last-write decisions, declared zeros,
  deltas that merge back exactly, and exact totals under concurrent adds;
* **worker deltas** — a ``jobs=2`` sweep reports the same run counts as a
  ``jobs=1`` sweep, because worker chunks ship their deltas to the parent;
* **unchanged surfaces** — the service's ``health`` reply and the
  runtime's ``fault_stats`` keep their exact key trees and values.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.experiments.config import quick_config
from repro.experiments.harness import run_sweep
from repro.parallel import ParallelRuntime
from repro.runtime.context import ExecutionContext
from repro.runtime.telemetry import Telemetry
from repro.service import ServiceConfig, ServiceThread


class TestTelemetry:
    def test_counters_sum_and_decisions_overwrite(self):
        sink = Telemetry(hits=0)
        sink.add("hits")
        sink.add("hits", 2)
        sink.add("seconds", 0.5)
        sink.set(stage="fill", jobs=2)
        sink.set(stage="select")
        assert sink.snapshot() == {
            "stage": "select", "jobs": 2, "hits": 3, "seconds": 0.5,
        }

    def test_declared_counters_are_listed_in_order(self):
        sink = Telemetry(b=0, a=0.0)
        assert list(sink.snapshot().items()) == [("b", 0), ("a", 0.0)]

    def test_since_and_merge_round_trip(self):
        source = Telemetry(hits=0, idle=0)
        source.add("hits", 4)
        earlier = source.snapshot()
        source.add("hits", 3)
        source.add("fresh", 0)
        source.set(stage="ignored")
        delta = source.since(earlier)
        # Changed and newly created counters only; decisions never travel.
        assert delta == {"hits": 3, "fresh": 0}
        target = Telemetry(hits=10)
        target.merge(delta)
        assert target.snapshot() == {"hits": 13, "fresh": 0}

    def test_concurrent_adds_reach_the_exact_total(self):
        # Switch threads as often as the interpreter allows, so an
        # unguarded read-modify-write would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        sink = Telemetry(count=0)
        threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                sink.add("count")

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert sink.snapshot()["count"] == threads * per_thread


class TestContextView:
    def test_derived_contexts_write_into_the_parent(self):
        with ExecutionContext(jobs=1) as context:
            context.sequential().telemetry.add("chunks", 2)
            context.replace(sample_batch_size=8).telemetry.add("chunks")
            assert context.diagnostics["chunks"] == 3

    def test_pickled_context_counts_from_zero(self):
        context = ExecutionContext()
        context.telemetry.add("chunks", 5)
        clone = pickle.loads(pickle.dumps(context))
        assert "chunks" not in clone.diagnostics
        clone.telemetry.add("chunks")
        assert context.diagnostics["chunks"] == 5


class TestWorkerDeltas:
    def test_jobs_2_sweep_counts_what_jobs_1_counts(self, tmp_path):
        base = quick_config(
            graph_n=200,
            realizations=4,
            algorithms=("ASTI", "ATEUC"),
            eta_fractions=(0.1,),
            max_samples=4000,
        )
        keys = (
            "mrr_pools_built",
            "mrr_sets_carried",
            "mrr_sets_dropped",
            "pool_store_hits",
            "pool_store_misses",
            "pool_store_stores",
            "pool_store_pool_hits",
        )

        def cold_then_warm(jobs):
            config = base.scaled(jobs=jobs, pool_store=str(tmp_path / f"jobs{jobs}"))
            passes = []
            for _ in range(2):
                sweep = run_sweep(config)
                seeds = {
                    label: [run.seed_count for run in outcome.runs]
                    for eta in sweep.eta_values
                    for label, outcome in sweep.outcomes[eta].items()
                }
                counts = {key: sweep.diagnostics.get(key) for key in keys}
                resolved = sum(sweep.diagnostics["kernel_backends_resolved"].values())
                passes.append((seeds, counts, resolved))
            return passes

        in_process, workers = cold_then_warm(1), cold_then_warm(2)
        for (seeds_1, counts_1, resolved_1), (seeds_2, counts_2, resolved_2) in zip(
            in_process, workers
        ):
            assert seeds_1 == seeds_2
            assert counts_1 == counts_2
            assert resolved_2 >= resolved_1
        (_, cold, _), (_, warm, _) = workers
        assert cold["pool_store_stores"] > 0 and cold["pool_store_hits"] == 0
        assert warm["pool_store_hits"] == cold["pool_store_stores"]
        assert warm["mrr_pools_built"] == cold["mrr_pools_built"] > 0


class TestUnchangedSurfaces:
    ESTIMATE = {
        "dataset": "nethept-sim", "n": 150, "eta": 15,
        "seeds": [0, 3, 7], "theta": 2000,
    }

    def test_health_reply_for_a_fixed_request_sequence(self, tmp_path):
        config = ServiceConfig(
            jobs=1, max_in_flight=2, max_queue=4, pool_store=str(tmp_path)
        )
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                for request_id, seed in (("e1", 7), ("e2", 7), ("e3", 8)):
                    assert client.request({
                        "op": "estimate", "id": request_id, "seed": seed,
                        "params": dict(self.ESTIMATE),
                    })["ok"]
                assert client.request({
                    "op": "solve", "id": "s1", "seed": 3,
                    "params": {"dataset": "nethept-sim", "n": 120, "eta": 12},
                })["ok"]
                assert not client.request({
                    "op": "estimate", "id": "bad", "seed": 1,
                    "params": {"dataset": "nethept-sim", "n": 150, "eta": -3},
                })["ok"]
                health = client.request({"op": "health", "id": "h"})["result"]
        assert health == {
            "status": "ok",
            "jobs": 1,
            "pending": 0,
            "counters": {
                "requests_total": 6,
                "requests_ok": 4,
                "requests_failed": 1,
                "shed_overloaded": 0,
                "deadline_queued": 0,
                "deadline_running": 0,
                "degraded_requests": 0,
                "carry_adopted": 1,
                "carry_discarded": 0,
                "shutting_down_replies": 0,
                "internal_errors": 0,
            },
            "cache": {
                "entries": 4,
                "bytes": 376000,
                "hits": 3,
                "misses": 4,
                "stores": 4,
                "evictions": 0,
                "invalidations": 0,
            },
            "store": {
                "root": str(tmp_path),
                "hits": 0,
                "misses": 2,
                "stores": 2,
                "store_failures": 0,
                "evictions": 0,
                "corrupt_discarded": 0,
                "bytes_read": 0,
                "bytes_written": 345984,  # two single-file artifacts (format 2)
            },
            "runtime": {"fault_stats": None},
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fault_stats_key_tree(self, jobs):
        with ParallelRuntime(jobs) as runtime:
            stats = runtime.fault_stats
            stats["rebuilds"] = 99  # a copy: the runtime is unaffected
            assert runtime.fault_stats["rebuilds"] == 0
        assert list(stats) == [
            "timeouts",
            "rebuilds",
            "republished_segments",
            "degraded_chunks",
            "recovered_seconds",
            "swept_orphans",
        ]
        assert stats["recovered_seconds"] == 0.0
        assert isinstance(stats["recovered_seconds"], float)
        assert all(
            isinstance(value, int) for key, value in stats.items()
            if key != "recovered_seconds"
        )
