"""The content-addressed pool store: persistence, corruption, eviction.

Covers the :mod:`repro.store` disk layer directly (round trips, digest
verification, LRU eviction, concurrency) and its consumers (warm fills,
CRN replay, harness worlds, service write-through) end to end, always
with the bar that matters: a warm run is byte-for-byte the cold run.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import shutil
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.store.disk import LOW_WATER, ORPHAN_GRACE_SECONDS


@pytest.fixture
def graph():
    topology = generators.preferential_attachment(300, 3, seed=1, directed=False)
    return weighting.weighted_cascade(topology)


def make_store(tmp_path, **kwargs):
    return PoolStore(tmp_path / "store", **kwargs)


def split_artifact(raw):
    """``(header dict, data region bytes)`` of an artifact file."""
    (header_len,) = struct.unpack_from("<Q", raw, 40)
    header = json.loads(raw[48:48 + header_len])
    return header, raw[-(-(48 + header_len) // 64) * 64:]


def forge_artifact(header, data):
    """An artifact file around ``header`` (a dict, or raw bytes) and
    ``data`` whose SHA-256 matches, so the loader's later checks run."""
    text = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    body = struct.pack("<Q", len(text)) + text + bytes(-(48 + len(text)) % 64) + data
    return b"REPROART" + hashlib.sha256(body).digest() + body


def sample_arrays(tag=0):
    return {
        "members": np.arange(10, dtype=np.int64) + tag,
        "weights": np.linspace(0.0, 1.0, 5),
    }


def fill_pool(graph, store, seed=11, count=400, batch=128):
    """One seeded mRR pool fill through ``store``: the pool's members and
    indptr, and the sampler's next draw (the restored generator state)."""
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
        artifact = store.root / f"{key}.art"
        artifact.write_bytes(artifact.read_bytes()[:20])
        assert store.load(key) is None
        assert store.telemetry.snapshot()["corrupt_discarded"] == 1
        # The file was removed — the next save regenerates cleanly.
        assert not artifact.exists()
        assert store.save(key, sample_arrays())
        assert store.load(key) is not None

    def test_digest_mismatch_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 3})
        store.save(key, sample_arrays())
        artifact = store.root / f"{key}.art"
        raw = bytearray(artifact.read_bytes())
        raw[8:40] = bytes(32)  # the prefix's SHA-256
        artifact.write_bytes(raw)
        assert store.load(key) is None
        assert store.telemetry.snapshot()["corrupt_discarded"] == 1

    def test_garbage_header_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 4})
        store.save(key, sample_arrays())
        artifact = store.root / f"{key}.art"
        _, data = split_artifact(artifact.read_bytes())
        # A digest that matches does not make an unparsable header loadable.
        artifact.write_bytes(forge_artifact(b"{not json", data))
        assert store.load(key) is None
        assert store.telemetry.snapshot()["corrupt_discarded"] == 1

    def test_version_mismatch_discarded(self, tmp_path):
        store = make_store(tmp_path)
        key = artifact_key("pool", {"a": 5})
        store.save(key, sample_arrays())
        artifact = store.root / f"{key}.art"
        header, data = split_artifact(artifact.read_bytes())
        header["version"] = ARTIFACT_FORMAT_VERSION + 1
        artifact.write_bytes(forge_artifact(header, data))
        assert store.load(key) is None
        assert store.telemetry.snapshot()["corrupt_discarded"] == 1

    def test_layout_is_prefix_header_aligned_arrays(self, tmp_path):
        """One file: magic, SHA-256, header length, JSON header, then each
        array's raw bytes at a 64-byte-aligned offset of the data region."""
        store = make_store(tmp_path)
        store.save("pool-aa", sample_arrays(), {"note": "x"})
        assert os.listdir(store.root) == ["pool-aa.art"]
        raw = (store.root / "pool-aa.art").read_bytes()
        header, data = split_artifact(raw)
        assert raw[:8] == b"REPROART" and forge_artifact(header, data) == raw
        assert header["key"] == "pool-aa" and header["meta"] == {"note": "x"}
        for spec in header["arrays"]:
            array = sample_arrays()[spec["name"]]
            assert spec["offset"] % 64 == 0 and spec["nbytes"] == array.nbytes
            chunk = data[spec["offset"]:spec["offset"] + spec["nbytes"]]
            assert chunk == array.tobytes() and spec["dtype"] == array.dtype.str

    def test_unsupported_dtype_not_saved(self, tmp_path):
        store = make_store(tmp_path)
        assert not store.save("pool-obj", {"x": np.array([object()])})
        assert store.telemetry.snapshot()["store_failures"] == 1
        assert store.load("pool-obj") is None

    def test_loaded_arrays_are_writable_and_keep_shape(self, tmp_path):
        store = make_store(tmp_path)
        arrays = {
            "grid": np.arange(12, dtype=np.int32).reshape(3, 4)[:, ::2],
            "scalar": np.float32(2.5),
            "empty": np.zeros((0, 3), dtype=bool),
        }
        assert store.save("pool-aa", arrays)
        loaded, _ = store.load("pool-aa")
        for name, array in arrays.items():
            array = np.asarray(array)
            assert loaded[name].dtype == array.dtype and loaded[name].shape == array.shape
            assert np.array_equal(loaded[name], array) and loaded[name].flags.writeable

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
        assert store._sizes and clone._sizes is None  # the size map stays local
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

    The reference a listing of the size map must agree with: every
    ``*.art`` file is a key (ordered by mtime), the total is every file
    under the root, stat'ed afresh, and a store above the low-water mark
    is evicted down to it (the just-saved key only down to the budget).
    """

    def keys(self):
        stamped = [
            (path.stat().st_mtime, path.stem)
            for path in Path(self.root).glob("*.art")
            if not path.name.startswith(".tmp-")
        ]
        return [key for _, key in sorted(stamped)]

    def _evict_over_budget(self, keep):
        ordered = self.keys()
        if keep in ordered:
            ordered.remove(keep)
            ordered.append(keep)
        total = disk_bytes(self.root)
        low_water = int(self.max_bytes * LOW_WATER)
        for key in ordered:
            if total <= (self.max_bytes if key == keep else low_water):
                return
            total -= self._path(key).stat().st_size
            self._unlink(self._path(key), "evictions")


def disk_bytes(root):
    return sum(entry.stat().st_size for entry in os.scandir(root))


def force_listing(store, keep):
    """Run ``store``'s budget check as if it had never listed the root."""
    with store._lock:
        store._sizes = None
        store._evict_over_budget(keep=keep)


class TestBudgetBookkeeping:
    def test_size_map_matches_full_rescan(self, tmp_path):
        """Parent and worker stores on one root stay within the documented
        bound after every save, and whenever they list, they decide as a
        full rescan of the same directory does.

        A seeded sequence of saves, loads, corrupt-then-loads and budget
        changes runs against two instances on one directory.  At each
        forced listing the directory is copied (mtimes included) and
        :class:`RescanStore` evicts the copy; key order, evictions and
        bytes must match the listing instance's own decision.
        """
        gen = np.random.default_rng(2024)
        keys = [f"pool-{i:02d}" for i in range(12)]

        def arrays(key):  # content fixed by the key, as in a real store
            tag = int(key[-2:])
            return {"members": np.arange(64 * (1 + tag % 5), dtype=np.int64) + tag}

        clock = itertools.count(1)
        stores = [
            PoolStore(tmp_path / "map", max_bytes=10**9, clock=lambda: float(next(clock)))
            for _ in ("parent", "worker")
        ]
        sizer = make_store(tmp_path / "sizer")
        for key in keys:
            sizer.save(key, arrays(key))
        largest = max(os.stat(sizer._path(key)).st_size for key in keys)
        entry = sizer.total_bytes() // len(keys)
        saves = listings = 0
        last = keys[0]
        for _ in range(400):
            op, who, key = gen.random(), int(gen.integers(2)), str(gen.choice(keys))
            store = stores[who]
            if op < 0.5:
                assert store.save(key, arrays(key))
                saves, last = saves + 1, key
                # Two writers: at most 1/8 of the budget plus two artifacts
                # over it (see the store's module docstring).
                bound = store.max_bytes + store.max_bytes // 8 + 2 * largest
                assert disk_bytes(store.root) <= bound
            elif op < 0.7:
                store.load(key)
            elif op < 0.8:
                present = RescanStore(store.root).keys()
                if present:
                    victim = store._path(present[int(gen.integers(len(present)))])
                    victim.write_bytes(victim.read_bytes()[:20])
                    assert store.load(victim.stem) is None
            elif op < 0.85:
                # A new budget, then both instances list, as a restart would.
                budget = int(gen.uniform(1, 6) * entry)
                for instance in stores:
                    instance.max_bytes = budget
                    force_listing(instance, last)
            else:
                copy_root = tmp_path / "rescan"
                shutil.rmtree(copy_root, ignore_errors=True)
                shutil.copytree(store.root, copy_root)
                reference = RescanStore(copy_root, max_bytes=store.max_bytes)
                reference._evict_over_budget(keep=last)
                before = store.telemetry.snapshot()["evictions"]
                force_listing(store, last)
                listings += 1
                assert store.keys() == reference.keys()
                assert (
                    store.telemetry.snapshot()["evictions"] - before
                    == reference.telemetry.snapshot()["evictions"]
                )
                assert disk_bytes(store.root) == disk_bytes(copy_root)
                assert store.total_bytes() == disk_bytes(store.root)
        counts = [store.telemetry.snapshot() for store in stores]
        assert saves > 150 and listings > 40
        assert sum(c["evictions"] for c in counts) > 20
        assert sum(c["corrupt_discarded"] for c in counts) > 5

    def test_two_writers_stay_within_budget_plus_two_artifacts(self, tmp_path):
        """Two instances that start together on one root, saving in a
        seeded interleaving, never leave more than two artifacts over the
        budget on disk; the one that saves last then fits it exactly once
        it lists."""
        gen = np.random.default_rng(7)
        budget = 20_000
        stores = [make_store(tmp_path, max_bytes=budget) for _ in range(2)]
        largest = 0
        for _ in range(400):
            store = stores[int(gen.integers(2))]
            key = f"pool-{int(gen.integers(150)):03d}"
            assert store.save(key, {"members": np.zeros(int(gen.integers(8, 240)))})
            largest = max(largest, os.stat(store._path(key)).st_size)
            assert disk_bytes(store.root) <= budget + 2 * largest
        force_listing(store, key)
        assert disk_bytes(store.root) <= budget
        evicted = sum(s.telemetry.snapshot()["evictions"] for s in stores)
        assert evicted > 100

    def test_stale_writer_adds_at_most_an_eighth_of_its_headroom(self, tmp_path):
        """The worst case: a writer lists an empty root, the other fills it
        to the budget, then the first writes until it lists again.

        The filler never evicts (a writer under the same budget would stop
        at the low-water mark, below the budget)."""
        budget = 40_000
        stale = make_store(tmp_path, max_bytes=budget)
        filler = make_store(tmp_path, max_bytes=10 * budget)
        arrays = {"members": np.zeros(100)}
        stale.save("pool-first", arrays)  # lists the (nearly) empty root
        entry = disk_bytes(stale.root)
        for i in range(budget // entry - 1):
            filler.save(f"pool-fill-{i}", arrays)
        assert disk_bytes(stale.root) <= budget + entry
        peak = 0
        for i in range(60):
            stale.save(f"pool-late-{i}", arrays)
            peak = max(peak, disk_bytes(stale.root))
        assert budget + entry < peak <= budget + budget // 8 + 2 * entry
        assert disk_bytes(stale.root) <= budget + entry

    def test_warm_map_save_does_not_list_the_root(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)
        store.save("pool-aa", sample_arrays())  # first save: builds the map
        calls = []

        def counted(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(os, "listdir", counted(os.listdir))
        monkeypatch.setattr(os, "scandir", counted(os.scandir))
        for i in range(20):
            assert store.save(f"pool-{i}", sample_arrays(i))
        monkeypatch.undo()
        assert calls == []
        assert len(store.keys()) == 21

    @staticmethod
    def _hammer(store, threads=6, saves=40):
        """Saves (and loads) from many threads on one shared instance, with
        a short switch interval so that unlocked updates would interleave."""
        import sys

        errors = []

        def writer(tag):
            try:
                for i in range(saves):
                    store.save(f"pool-{tag}-{i}", {"members": np.arange(8 * (1 + i % 7))})
                    store.load(f"pool-{tag}-{i // 2}")
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(worker.is_alive() for worker in workers)
        assert store.telemetry.snapshot()["stores"] == threads * saves

    def test_shared_instance_counts_every_thread_write(self, tmp_path):
        """The service shares one store between threads: no thread's bytes
        may drop out of the writes the next listing is scheduled by."""
        store = make_store(tmp_path)
        store.total_bytes()  # an (empty) listing, so no save lists again
        self._hammer(store)
        assert store._written == store.telemetry.snapshot()["bytes_written"]

    def test_shared_instance_fits_its_budget(self, tmp_path):
        store = make_store(tmp_path, max_bytes=6_000)
        self._hammer(store)
        assert disk_bytes(store.root) <= store.max_bytes
        # Every key was saved once; two threads evicting the same file
        # would count it twice.
        evictions = store.telemetry.snapshot()["evictions"]
        assert evictions > 100 and len(store.keys()) + evictions == 240

    def test_listing_cadence_follows_the_headroom(self, tmp_path, monkeypatch):
        """A filling store is listed at its first save, then whenever the
        writes since the last listing pass 1/8 of the headroom it left."""
        arrays = {"members": np.zeros(100)}
        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-000", arrays)
        entry = sizer.total_bytes()
        budget = 48 * entry
        expected, listed, written = [], None, 0
        for i in range(40):  # 40 equal artifacts: no eviction yet
            written += entry
            if listed is None or 8 * written > budget - listed:
                expected.append(i)
                listed, written = (i + 1) * entry, 0
        store = make_store(tmp_path, max_bytes=budget)
        calls = []
        real = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: calls.append(path) or real(path))
        observed = []
        for i in range(40):
            before = len(calls)
            assert store.save(f"pool-{i:03d}", arrays)
            if len(calls) > before:
                observed.append(i)
        assert observed == expected and len(expected) >= 6

    def test_full_store_lists_at_most_every_ninth_save(self, tmp_path, monkeypatch):
        """A store filled to a 1,024-artifact budget then takes 1,000 more
        equal saves: each listing evicts down to the low-water mark, so the
        headroom it leaves (64 artifacts) spaces listings 9 saves apart."""
        gen = np.random.default_rng(28)
        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-0000", {"members": gen.random(4)})
        store = make_store(tmp_path, max_bytes=1024 * sizer.total_bytes())
        for i in range(1024):
            assert store.save(f"pool-{i:04d}", {"members": gen.random(4)})
        calls = []
        real = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: calls.append(path) or real(path))
        for i in range(1024, 2024):
            assert store.save(f"pool-{i:04d}", {"members": gen.random(4)})
        monkeypatch.undo()
        assert 0 < len(calls) <= -(-1000 // 9) + 1
        assert disk_bytes(store.root) <= store.max_bytes

    def test_eviction_spares_staging_files(self, tmp_path):
        """An in-flight ``.tmp-*`` file is another writer's publish, not a key."""
        store = make_store(tmp_path, max_bytes=1)
        store.root.mkdir(parents=True)
        staging = store.root / ".tmp-x.art"
        staging.write_text("{}")
        # Older than anything the save writes, yet inside the orphan grace.
        stamp = time.time() - ORPHAN_GRACE_SECONDS / 2
        os.utime(staging, (stamp, stamp))
        store.save("pool-aa", sample_arrays())
        assert staging.exists()
        assert store.keys() == []

    def test_crash_mid_publish_orphans_are_reaped(self, tmp_path, monkeypatch):
        """Writers that die mid-publish leave staging files no key owns;
        once past the grace period they are deleted and the store fits its
        budget."""
        gen = np.random.default_rng(11)
        budget = 5000
        store = make_store(tmp_path, max_bytes=budget)

        class Crash(BaseException):
            """Process death: no ``except`` below gets to clean up."""

        def dying_replace(src, dst):
            raise Crash

        monkeypatch.setattr(os, "replace", dying_replace)
        for key in ("pool-crash-a", "pool-crash-b"):
            with pytest.raises(Crash):
                store.save(key, {"members": gen.random(12_500)})  # ~100 kB
        monkeypatch.undo()
        orphans = sorted(entry.name for entry in os.scandir(store.root))
        assert len(orphans) == 2 and all(name.startswith(".tmp-") for name in orphans)
        stale = time.time() - ORPHAN_GRACE_SECONDS - 1
        for name in orphans:
            os.utime(store.root / name, (stale, stale))
        in_flight = store.root / ".tmp-in-flight.art"
        in_flight.write_bytes(b"x" * 64)

        sizer = make_store(tmp_path / "sizer")
        sizer.save("pool-probe", {"members": gen.random(64)})
        artifact = sizer.total_bytes()
        # A fresh instance, as a restarted process would be: its first
        # save lists the root.
        store = make_store(tmp_path, max_bytes=budget)
        for i in range(5):
            assert store.save(f"pool-{i}", {"members": gen.random(64)})
            assert disk_bytes(store.root) <= budget + artifact
            assert store.total_bytes() == disk_bytes(store.root)
        assert not any((store.root / name).exists() for name in orphans)
        assert in_flight.exists()
        assert store.telemetry.snapshot()["corrupt_discarded"] == 2
        assert store.load("pool-4") is not None

    def test_format_one_files_are_reaped_after_the_grace(self, tmp_path):
        """Upgrading a root: format-1 ``<key>.npz``/``<key>.json`` pairs are
        never keys any more; the stale ones are deleted (counted as corrupt
        discards) at the next listing, fresh ones wait out the grace."""
        gen = np.random.default_rng(5)
        store = make_store(tmp_path, max_bytes=50_000)
        store.root.mkdir(parents=True)
        stale_time = time.time() - ORPHAN_GRACE_SECONDS - 1
        stale, fresh = [], []
        for i in range(8):
            for suffix in (".npz", ".json"):
                path = store.root / f"pool-{i:02d}{suffix}"
                path.write_bytes(gen.bytes(int(gen.integers(1_000, 20_000))))
                if i < 6:
                    os.utime(path, (stale_time, stale_time))
                (stale if i < 6 else fresh).append(path)
        assert store.save("pool-new", sample_arrays())
        assert not any(path.exists() for path in stale)
        assert all(path.exists() for path in fresh)
        assert store.telemetry.snapshot()["corrupt_discarded"] == len(stale)
        assert store.keys() == ["pool-new"]
        assert store.total_bytes() == disk_bytes(store.root)

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
    def test_warm_pool_fill_bit_identical(self, graph, tmp_path):
        store = make_store(tmp_path)
        cold = fill_pool(graph, store)
        warm_store = PoolStore(store.root)
        warm = fill_pool(graph, warm_store)
        for c, w in zip(cold, warm):
            assert np.array_equal(c, w)
        assert warm_store.telemetry.snapshot()["hits"] >= 1

    def test_no_store_matches_store(self, graph, tmp_path):
        plain = fill_pool(graph, None)
        cold = fill_pool(graph, make_store(tmp_path))
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
        cold = fill_pool(graph, store)
        for artifact in store.root.glob("*.art"):
            artifact.write_bytes(b"garbage")
        warm_store = PoolStore(store.root)
        warm = fill_pool(graph, warm_store)
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


def _spec_mutator(field, value):
    def mutate(header):
        header["arrays"][0][field] = value
        return header
    return mutate


def _offset_past_data(header):
    header["arrays"][-1]["offset"] += 64 * 1024
    return header


def _nbytes_off_by_one_item(header):
    header["arrays"][0]["nbytes"] += np.dtype(header["arrays"][0]["dtype"]).itemsize
    return header


def _negative_shape_and_nbytes(header):
    # Consistent with each other, and ``count=-1`` would make numpy read
    # the rest of the buffer: only the shape check stands in the way.
    spec = header["arrays"][0]
    spec["shape"], spec["nbytes"] = [-1], -np.dtype(spec["dtype"]).itemsize
    return header


def _duplicate_name(header):
    header["arrays"][1]["name"] = header["arrays"][0]["name"]
    return header


def _header_field(field, value):
    def mutate(header):
        header[field] = value
        return header
    return mutate


#: Headers a hostile or buggy writer could produce, each behind a valid
#: digest so the loader's header checks (not the digest) must reject it.
HOSTILE_HEADERS = (
    _spec_mutator("dtype", "|O"),
    _spec_mutator("dtype", "|V8"),
    _spec_mutator("dtype", np.dtype("i8,i8").str),
    _spec_mutator("dtype", "not-a-dtype"),
    _spec_mutator("dtype", ["<i8"]),
    _spec_mutator("shape", [-1]),
    _spec_mutator("shape", [True]),
    _spec_mutator("shape", [2.0]),
    _spec_mutator("shape", [2**40]),
    _spec_mutator("offset", -64),
    _spec_mutator("offset", 8),
    _spec_mutator("nbytes", -8),
    _spec_mutator("name", None),
    _offset_past_data,
    _nbytes_off_by_one_item,
    _negative_shape_and_nbytes,
    _duplicate_name,
    _header_field("arrays", {}),
    _header_field("key", "pool-other"),
    _header_field("version", ARTIFACT_FORMAT_VERSION - 1),
    lambda header: [header],
    lambda header: b"\xff\xfe{",
    lambda header: b"[" * 100_000,
)


class TestArtifactFuzz:
    """Damaged artifact bytes: the loader never raises, every load is a
    counted miss, and the consumer regenerates the cold pool exactly."""

    @pytest.fixture
    def cold(self, graph, tmp_path):
        store = make_store(tmp_path)
        pool = fill_pool(graph, store)
        (path,) = store.root.glob("*.art")
        return pool, path, path.read_bytes()

    def test_truncation_at_every_boundary(self, cold):
        _, path, raw = cold
        header, data = split_artifact(raw)
        data_start = len(raw) - len(data)
        cuts = {0, 1, 7, 8, 39, 40, 47, 48, data_start - 1, data_start, len(raw) - 1}
        for spec in header["arrays"]:
            for edge in (spec["offset"], spec["offset"] + spec["nbytes"]):
                cuts.update({data_start + edge - 1, data_start + edge})
        for cut in sorted(c for c in cuts if 0 <= c < len(raw)):
            path.write_bytes(raw[:cut])
            store = PoolStore(path.parent)
            assert store.load(path.stem) is None, cut
            assert store.telemetry.snapshot()["corrupt_discarded"] == 1
            assert not path.exists()

    @pytest.mark.parametrize("mutate", HOSTILE_HEADERS)
    def test_every_hostile_header_is_a_miss(self, graph, cold, mutate):
        pool, path, raw = cold
        header, region = split_artifact(raw)
        path.write_bytes(forge_artifact(mutate(copy.deepcopy(header)), region))
        store = PoolStore(path.parent)
        warm = fill_pool(graph, store)
        counts = store.telemetry.snapshot()
        assert counts["hits"] == 0 and counts["corrupt_discarded"] == 1
        for c, w in zip(pool, warm):
            assert np.array_equal(c, w)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_damaged_bytes_miss_and_regenerate(self, graph, cold, data):
        pool, path, raw = cold
        header, region = split_artifact(raw)
        damage = data.draw(st.sampled_from(("truncate", "flip", "hostile")))
        if damage == "truncate":
            damaged = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif damage == "flip":
            flips = data.draw(st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                min_size=1, max_size=4, unique_by=lambda flip: flip[0],
            ))
            damaged = bytearray(raw)
            for position, mask in flips:
                damaged[position] ^= mask
        else:
            mutate = data.draw(st.sampled_from(HOSTILE_HEADERS))
            damaged = forge_artifact(mutate(copy.deepcopy(header)), region)
        path.write_bytes(bytes(damaged))
        store = PoolStore(path.parent)
        warm = fill_pool(graph, store)
        counts = store.telemetry.snapshot()
        assert counts["hits"] == 0 and counts["misses"] == 1
        assert counts["corrupt_discarded"] == 1
        for c, w in zip(pool, warm):
            assert np.array_equal(c, w)
        assert path.read_bytes() == raw  # the regenerated artifact


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
