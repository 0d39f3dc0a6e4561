"""The content-addressed pool store: persistence, corruption, eviction.

Covers the :mod:`repro.store` disk layer directly (round trips, digest
verification, LRU eviction, concurrency) and its consumers (warm fills,
CRN replay, harness worlds, service write-through) end to end, always
with the bar that matters: a warm run is byte-for-byte the cold run.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.experiments.config import quick_config
from repro.experiments.harness import run_sweep
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule
from repro.store import (
    ARTIFACT_FORMAT_VERSION,
    PoolStore,
    artifact_key,
    canonical_json,
    generator_state,
    graph_fingerprint,
    restore_generator_state,
)
from repro.store.disk import ORPHAN_GRACE_SECONDS


@pytest.fixture
def graph():
    topology = generators.preferential_attachment(300, 3, seed=1, directed=False)
    return weighting.weighted_cascade(topology)


def make_store(tmp_path, **kwargs):
    return PoolStore(tmp_path / "store", **kwargs)


def sample_arrays(tag=0):
    return {
        "members": np.arange(10, dtype=np.int64) + tag,
        "weights": np.linspace(0.0, 1.0, 5),
    }


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 1})
        assert store.save(key, sample_arrays(), {"note": "x"})
        arrays, meta = store.load(key)
        assert np.array_equal(arrays["members"], sample_arrays()["members"])
        assert meta == {"note": "x"}
        assert store.telemetry.snapshot()["hits"] == 1 and store.telemetry.snapshot()["stores"] == 1

    def test_miss_returns_none(self, tmp_path):
        store = make_store(tmp_path)
        assert store.load("pool-deadbeef") is None
        assert store.telemetry.snapshot()["misses"] == 1

    def test_truncated_payload_discarded_silently(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 2})
        store.save(key, sample_arrays())
        payload = store.root / f"{key}.npz"
        payload.write_bytes(payload.read_bytes()[:20])
        assert store.load(key) is None
        assert store.telemetry.snapshot()["corrupt_discarded"] == 1
        # Both files were removed — the next save regenerates cleanly.
        assert not payload.exists()
        assert store.save(key, sample_arrays())
        assert store.load(key) is not None

    def test_digest_mismatch_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 3})
        store.save(key, sample_arrays())
        manifest_path = store.root / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["digest"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key) is None
        assert store.telemetry.snapshot()["corrupt_discarded"] == 1

    def test_garbage_manifest_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 4})
        store.save(key, sample_arrays())
        (store.root / f"{key}.json").write_text("{not json")
        assert store.load(key) is None

    def test_version_mismatch_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 5})
        store.save(key, sample_arrays())
        manifest_path = store.root / f"{key}.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = ARTIFACT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key) is None

    def test_lru_eviction_order(self, tmp_path):
        clock = iter(range(1000))
        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-probe", sample_arrays())
        entry_bytes = sizer.total_bytes()
        # Budget for ~1.5 entries: each new save evicts the older one.
        store = make_store(
            tmp_path, max_bytes=int(1.5 * entry_bytes), clock=lambda: next(clock)
        )
        store.save("pool-aa", sample_arrays())
        store.save("pool-bb", sample_arrays())
        assert store.keys() == ["pool-bb"]
        assert store.telemetry.snapshot()["evictions"] == 1

    def test_oversized_entry_not_kept(self, tmp_path):
        store = make_store(tmp_path, max_bytes=1)
        store.save("pool-aa", sample_arrays())
        # An entry that alone exceeds the budget is evicted immediately,
        # mirroring the service cache's oversized-entry policy.
        assert store.keys() == []

    def test_touch_refreshes_recency(self, tmp_path):
        clock = iter(range(1000))
        nbytes = None
        store = make_store(tmp_path, max_bytes=10**9, clock=lambda: next(clock))
        store.save("pool-aa", sample_arrays())
        store.save("pool-bb", sample_arrays())
        store.save("pool-cc", sample_arrays())
        # Loading "aa" makes it most recent; shrink the budget so only
        # two entries fit and save another — "bb" must go first.
        store.load("pool-aa")
        entry_bytes = store.total_bytes() // 3
        store.max_bytes = int(2.5 * entry_bytes)
        store.save("pool-dd", sample_arrays())
        kept = set(store.keys())
        assert "pool-dd" in kept and "pool-aa" in kept
        assert "pool-bb" not in kept

    def test_save_never_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.root.parent.chmod(0o555)
        try:
            ok = store.save("pool-ro", sample_arrays())
        finally:
            store.root.parent.chmod(0o755)
        if not ok:  # root (in CI containers) may bypass the chmod
            assert store.telemetry.snapshot()["store_failures"] == 1

    def test_concurrent_readers_and_writers(self, tmp_path):
        """Atomic publish: a reader never sees a half-written artifact."""
        store = make_store(tmp_path)
        key = artifact_key("pool", {"race": True})
        stop = threading.Event()
        bad = []

        def writer():
            i = 0
            while not stop.is_set():
                PoolStore(store.root).save(key, sample_arrays(i % 7))
                i += 1

        def reader():
            while not stop.is_set():
                loaded = PoolStore(store.root).load(key)
                if loaded is not None:
                    members = loaded[0]["members"]
                    tag = int(members[0])
                    if not np.array_equal(members, sample_arrays(tag)["members"]):
                        bad.append(members)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not bad

    def test_pickled_store_drops_stats(self, tmp_path):
        import pickle

        store = make_store(tmp_path)
        store.save("pool-aa", sample_arrays())
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.telemetry.snapshot()["stores"] == 0
        assert store._sizes and clone._sizes == {}  # the size map stays local
        assert clone.load("pool-aa") is not None

    def test_empty_root_rejected(self):
        # Path("") means the cwd; an empty root must never scatter
        # artifacts into the working tree (same guard at the CLI and
        # ExperimentConfig boundaries).
        with pytest.raises(ValueError, match="store root"):
            PoolStore("")
        with pytest.raises(ValueError, match="store root"):
            PoolStore("   ")


class RescanStore(PoolStore):
    """The budget check as a full directory rescan on every save.

    The reference the incremental size map must agree with: every
    ``*.json`` is a key (ordered by manifest mtime) and every key's two
    files are stat'ed afresh.
    """

    def keys(self):
        stamped = [
            (manifest.stat().st_mtime, manifest.stem)
            for manifest in Path(self.root).glob("*.json")
        ]
        return [key for _, key in sorted(stamped)]

    def _evict_over_budget(self, keep):
        ordered = self.keys()
        if keep in ordered:
            ordered.remove(keep)
            ordered.append(keep)
        sizes = {
            key: sum(
                path.stat().st_size
                for path in (self._manifest_path(key), self._payload_path(key))
                if path.exists()
            )
            for key in ordered
        }
        total = sum(sizes.values())
        for key in ordered:
            if total <= self.max_bytes:
                return
            self._unlink(key, "evictions")
            total -= sizes[key]


def disk_bytes(root):
    return sum(entry.stat().st_size for entry in os.scandir(root))


class TestBudgetBookkeeping:
    def test_size_map_matches_full_rescan(self, tmp_path):
        """Parent and worker stores on one root decide as a rescan does.

        The same seeded sequence of saves, loads, corrupt-then-loads and
        budget changes runs against two instances on one directory with
        the size map, and two on another with :class:`RescanStore`; after
        every save the key order, eviction counts and bytes agree.
        """
        gen = np.random.default_rng(2024)
        keys = [f"pool-{i:02d}" for i in range(12)]

        def arrays(key):  # content fixed by the key, as in a real store
            tag = int(key[-2:])
            return {"members": np.arange(64 * (1 + tag % 5), dtype=np.int64) + tag}

        def pair(cls, name):
            clock = itertools.count(1)
            return [
                cls(tmp_path / name, max_bytes=10**9, clock=lambda: float(next(clock)))
                for _ in ("parent", "worker")
            ]

        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-00", arrays("pool-00"))
        entry = sizer.total_bytes()
        fast, reference = pair(PoolStore, "map"), pair(RescanStore, "rescan")
        saves = 0
        for _ in range(400):
            op, who, key = gen.random(), int(gen.integers(2)), str(gen.choice(keys))
            if op < 0.5:
                assert fast[who].save(key, arrays(key)) == reference[who].save(
                    key, arrays(key)
                )
                saves += 1
                assert fast[0].keys() == reference[0].keys()
                for mine, theirs in zip(fast, reference):
                    assert (
                        mine.telemetry.snapshot()["evictions"]
                        == theirs.telemetry.snapshot()["evictions"]
                    )
                assert disk_bytes(fast[0].root) == disk_bytes(reference[0].root)
            elif op < 0.75:
                hit = fast[who].load(key) is not None
                assert hit == (reference[who].load(key) is not None)
            elif op < 0.85:
                present = reference[0].keys()
                if present:
                    victim = present[int(gen.integers(len(present)))]
                    for store in (fast[0], reference[0]):
                        payload = store._payload_path(victim)
                        payload.write_bytes(payload.read_bytes()[:20])
                    assert fast[who].load(victim) is None
                    assert reference[who].load(victim) is None
            else:
                budget = int(gen.uniform(1, 6) * entry)
                for store in fast + reference:
                    store.max_bytes = budget
        counts = [store.telemetry.snapshot() for store in fast]
        assert saves > 150
        assert sum(c["evictions"] for c in counts) > 20
        assert sum(c["corrupt_discarded"] for c in counts) > 5

    def test_eviction_spares_staging_files(self, tmp_path):
        """An in-flight ``.tmp-*`` file is another writer's publish, not a key."""
        store = make_store(tmp_path, max_bytes=1)
        store.root.mkdir(parents=True)
        staging = store.root / ".tmp-x.json"
        staging.write_text("{}")
        # Older than anything the save writes, yet inside the orphan grace.
        stamp = time.time() - ORPHAN_GRACE_SECONDS / 2
        os.utime(staging, (stamp, stamp))
        store.save("pool-aa", sample_arrays())
        assert staging.exists()
        assert store.keys() == []

    def test_crash_mid_publish_orphans_are_reaped(self, tmp_path, monkeypatch):
        """Writers that die mid-publish leave files no key owns; once past
        the grace period they are deleted and the store fits its budget."""
        gen = np.random.default_rng(11)
        budget = 5000
        store = make_store(tmp_path, max_bytes=budget)

        class Crash(BaseException):
            """Process death: no ``except`` below gets to clean up."""

        real_replace, calls = os.replace, []

        def dying_replace(src, dst):
            calls.append(dst)
            if len(calls) in (1, 3):  # 1: the payload; 3: the second manifest
                raise Crash
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        for key in ("pool-crash-a", "pool-crash-b"):
            with pytest.raises(Crash):
                store.save(key, {"members": gen.random(12_500)})  # ~100 kB
        monkeypatch.undo()
        # Left behind: a staged payload, a payload without a manifest and
        # a staged manifest.
        orphans = sorted(entry.name for entry in os.scandir(store.root))
        assert len(orphans) == 3 and "pool-crash-b.npz" in orphans
        assert sum(name.startswith(".tmp-") for name in orphans) == 2
        stale = time.time() - ORPHAN_GRACE_SECONDS - 1
        for name in orphans:
            os.utime(store.root / name, (stale, stale))
        in_flight = store.root / ".tmp-in-flight.npz"
        in_flight.write_bytes(b"x" * 64)

        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-probe", {"members": gen.random(64)})
        artifact = sizer.total_bytes()
        for i in range(5):
            assert store.save(f"pool-{i}", {"members": gen.random(64)})
            assert disk_bytes(store.root) <= budget + artifact
            assert store.total_bytes() == disk_bytes(store.root)
        assert not any((store.root / name).exists() for name in orphans)
        assert in_flight.exists()
        assert store.telemetry.snapshot()["corrupt_discarded"] == 3
        assert store.load("pool-4") is not None


class TestKeys:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_graph_fingerprint_distinguishes_graphs(self, graph):
        other = weighting.weighted_cascade(
            generators.preferential_attachment(300, 3, seed=2, directed=False)
        )
        assert graph_fingerprint(graph) != graph_fingerprint(other)
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_storage_policy_in_fingerprint(self, graph):
        wide = graph.with_storage("wide")
        assert graph_fingerprint(graph) != graph_fingerprint(wide)

    def test_artifact_key_isolates_kinds(self):
        assert artifact_key("pool", {"x": 1}) != artifact_key("crn", {"x": 1})
        assert artifact_key("pool", {"x": 1}).startswith("pool-")

    def test_generator_state_round_trip(self):
        rng = np.random.default_rng(42)
        rng.integers(0, 100, size=8)
        state = generator_state(rng)
        probe = rng.integers(0, 2**32, size=4)
        fresh = np.random.default_rng(0)
        assert restore_generator_state(fresh, state)
        assert np.array_equal(fresh.integers(0, 2**32, size=4), probe)

    def test_restore_rejects_foreign_state(self):
        rng = np.random.default_rng(0)
        assert not restore_generator_state(rng, {"bit_generator": "Philox"})
        assert not restore_generator_state(rng, {})


class TestWarmConsumers:
    def _fill(self, graph, store, seed=11, count=400, batch=128):
        context = ExecutionContext(sample_batch_size=batch, pool_store=store)
        engine = mrr_batch_sampler(
            graph,
            IndependentCascade(),
            RootCountRule.for_target(graph.n, 30),
            seed=seed,
            context=context,
        )
        index = CoverageIndex(graph.n)
        engine.fill(index, count)
        members, indptr = index.packed()
        probe = engine._rng.integers(0, 2**32, size=4)
        return members.copy(), indptr.copy(), probe

    def test_warm_pool_fill_bit_identical(self, graph, tmp_path):
        store = make_store(tmp_path)
        cold = self._fill(graph, store)
        warm_store = PoolStore(store.root)
        warm = self._fill(graph, warm_store)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)
        assert warm_store.telemetry.snapshot()["hits"] >= 1

    def test_no_store_matches_store(self, graph, tmp_path):
        plain = self._fill(graph, None)
        cold = self._fill(graph, make_store(tmp_path))
        for p, c in zip(plain, cold):
            assert np.array_equal(p, c)

    def test_unseeded_sampler_skips_store(self, graph, tmp_path):
        store = make_store(tmp_path)
        context = ExecutionContext(pool_store=store)
        engine = mrr_batch_sampler(
            graph,
            IndependentCascade(),
            RootCountRule.for_target(graph.n, 30),
            seed=None,
            context=context,
        )
        engine.fill(CoverageIndex(graph.n), 100)
        assert len(store) == 0

    def test_warm_crn_bit_identical(self, graph, tmp_path):
        store = make_store(tmp_path)
        candidates = [[v] for v in range(16)]

        def evaluate(active_store):
            evaluator = CRNSpreadEvaluator(
                graph,
                IndependentCascade(),
                n_sims=40,
                seed=5,
                context=ExecutionContext(pool_store=active_store),
            )
            return np.asarray(evaluator.evaluate_many(candidates))

        plain = evaluate(None)
        cold = evaluate(store)
        warm_store = PoolStore(store.root)
        warm = evaluate(warm_store)
        assert np.array_equal(plain, cold)
        assert np.array_equal(cold, warm)
        assert warm_store.telemetry.snapshot()["hits"] >= 1

    def test_warm_sweep_seed_counts_identical(self, tmp_path):
        config = quick_config(
            graph_n=200,
            realizations=2,
            algorithms=("ASTI",),
            eta_fractions=(0.1,),
        )

        def counts(pool_store):
            sweep = run_sweep(config.scaled(pool_store=pool_store))
            return [
                r.seed_count
                for eta in sweep.eta_values
                for r in sweep.outcomes[eta]["ASTI"].runs
            ]

        store_dir = str(tmp_path / "sweep-store")
        plain = counts(None)
        cold = counts(store_dir)
        warm = counts(store_dir)
        assert plain == cold == warm

    def test_corrupt_store_regenerates(self, graph, tmp_path):
        store = make_store(tmp_path)
        cold = self._fill(graph, store)
        for payload in store.root.glob("*.npz"):
            payload.write_bytes(b"garbage")
        warm_store = PoolStore(store.root)
        warm = self._fill(graph, warm_store)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)
        assert warm_store.telemetry.snapshot()["corrupt_discarded"] >= 1

    def test_context_pickles_with_store(self, tmp_path):
        import pickle

        context = ExecutionContext(pool_store=make_store(tmp_path))
        clone = pickle.loads(pickle.dumps(context))
        assert clone.pool_store.root == context.pool_store.root

    def test_note_store_diagnostics(self, tmp_path):
        store = make_store(tmp_path)
        store.save("pool-aa", sample_arrays())
        context = ExecutionContext(pool_store=store)
        assert context.diagnostics["pool_store_stores"] == 1
        assert str(store.root) in context.diagnostics["pool_store_root"]


class TestServiceIntegration:
    def test_restart_replays_pool_from_store(self, tmp_path):
        # Service A computes an estimate cold and writes its pool through
        # the store; service B, booted on the same directory, misses its
        # empty LRU but hits the store: same result bytes, no resampling.
        from repro.service import ServiceConfig, ServiceThread

        store_dir = str(tmp_path / "service-store")
        request = {
            "op": "estimate", "id": "e", "seed": 7,
            "params": {
                "dataset": "nethept-sim", "n": 160, "eta": 16,
                "seeds": [0, 3, 7], "theta": 400,
            },
        }

        def boot_and_estimate():
            with ServiceThread(ServiceConfig(pool_store=store_dir)) as harness:
                with harness.connect() as client:
                    reply = client.request(request)
                    health = client.request({"op": "health", "id": "h"})
            return reply, health["result"]["store"]

        cold, cold_store = boot_and_estimate()
        warm, warm_store = boot_and_estimate()
        assert cold["ok"] and warm["ok"]
        assert warm["result"] == cold["result"]
        # A store hit, not an LRU hit: the fresh cache offered no carry.
        assert warm["meta"]["carry"] == "none"
        assert cold_store["stores"] >= 1
        assert warm_store["hits"] >= 1
        assert warm_store["stores"] == 0

    def test_solves_do_not_write_through(self, tmp_path):
        from repro.service import ServiceConfig, ServiceThread

        store_dir = tmp_path / "service-store"
        with ServiceThread(ServiceConfig(pool_store=str(store_dir))) as harness:
            with harness.connect() as client:
                reply = client.request({
                    "op": "solve", "id": "s", "seed": 3,
                    "params": {"dataset": "nethept-sim", "n": 120, "eta": 12},
                })
        assert reply["ok"]
        assert len(PoolStore(store_dir)) == 0

    def test_nbytes_charges_every_array_a_snapshot_keeps_alive(
        self, small_social, ic_model
    ):
        from repro.graph.residual import initial_residual
        from repro.sampling.mrr import MRRCollection
        from repro.service.handlers import carried_pool_nbytes

        collection = MRRCollection(small_social, ic_model, 12, seed=4)
        collection.grow_to(50)
        pool = collection.export_carry(initial_residual(small_social, 12))
        # The exported members/indptr are views into the index's larger
        # append buffers; the snapshot pins the whole buffers.
        assert pool.members.base is not None
        assert pool.members.base.nbytes > pool.members.nbytes
        expected = (
            pool.members.base.nbytes
            + pool.indptr.base.nbytes
            + pool.root_counts.nbytes
            + pool.original_ids.nbytes
            + pool.counts.nbytes
        )
        assert carried_pool_nbytes(pool) == expected

    def test_health_reports_store(self, tmp_path):
        from repro.service.server import SeedService, ServiceConfig

        service = SeedService(
            ServiceConfig(pool_store=str(tmp_path / "service-store"))
        )
        health = service._health()
        assert health["store"]["stores"] == 0
        assert "service-store" in health["store"]["root"]
