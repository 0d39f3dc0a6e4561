"""The on-disk artifact store: npz payloads + JSON manifests.

Layout: each artifact is a pair of files in one flat directory::

    <root>/<key>.npz     the numpy payload (named arrays, uncompressed)
    <root>/<key>.json    the manifest: key, format version, payload digest,
                         payload byte count, caller metadata

Guarantees:

* **Atomic writes** — both files are staged as temporaries in the store
  directory and published with ``os.replace`` (payload first, manifest
  last), so readers either see a complete artifact or none.  Concurrent
  writers of the same key are safe: the last ``os.replace`` wins.
* **Verified loads** — a load re-hashes the payload bytes and compares
  against the manifest digest; any mismatch (truncation, torn concurrent
  rewrite, bit rot) or any other failure discards the artifact and returns
  ``None`` — callers silently regenerate, the store **never crashes a
  run**.  Discards are counted in :attr:`PoolStore.telemetry`.
* **Bounded size** — after every save the store deletes a crashed
  writer's leftovers (staging temporaries and payloads without a manifest
  older than :data:`ORPHAN_GRACE_SECONDS`), then evicts
  least-recently-used artifacts (manifest mtime, refreshed on every hit)
  until the bytes of every file under the root fit ``max_bytes``.

The store is picklable (configuration only; a copy counts from zero), so
an :class:`~repro.runtime.context.ExecutionContext` carrying one can cross
a process boundary; worker-side stores operate on the same directory and
remain safe thanks to the atomic publish protocol, and a worker chunk
ships its copy's counts back to the parent as a delta.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.runtime.telemetry import Telemetry
from repro.store.keys import ARTIFACT_FORMAT_VERSION

#: Default byte budget: generous for pools/worlds at benchmark scale while
#: still bounding an unattended store (e.g. a long-lived service host).
DEFAULT_STORE_BYTES = 2 * 1024 ** 3

_MANIFEST_SUFFIX = ".json"
_PAYLOAD_SUFFIX = ".npz"
_STAGING_PREFIX = ".tmp-"  # a staged temporary awaiting its atomic publish

#: Age past which a staging temporary or a payload without a manifest is a
#: crashed writer's leftover rather than an in-flight publish: a live
#: writer's files are younger (writing stamps them, ``os.replace`` keeps
#: the stamp).
ORPHAN_GRACE_SECONDS = 600.0


#: Store counters, in the order ``health`` and diagnostics list them.
_COUNTERS = (
    "hits", "misses", "stores", "store_failures", "evictions",
    "corrupt_discarded", "bytes_read", "bytes_written",
)


def _store_telemetry() -> Telemetry:
    return Telemetry(**dict.fromkeys(_COUNTERS, 0))


@dataclass
class PoolStore:
    """Content-addressed artifact store for pools and realization batches.

    Parameters
    ----------
    root:
        Directory holding the artifacts; created on first save.
    max_bytes:
        Byte budget over every file under ``root``; least-recently-used
        artifacts are evicted after each save until the store fits.
    clock:
        Injectable time source for the LRU recency stamp (tests substitute
        a deterministic counter).
    """

    root: Union[str, Path]
    max_bytes: int = DEFAULT_STORE_BYTES
    clock: Callable[[], float] = time.time
    #: Hit/miss/eviction counters (``ExecutionContext.diagnostics`` shows
    #: them as ``pool_store_*``); a pickled copy starts at zero.
    telemetry: Telemetry = field(
        default_factory=_store_telemetry, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not str(self.root).strip():
            # Path("") silently means the current directory; an empty root
            # would scatter artifacts into whatever the cwd happens to be.
            raise ValueError("store root must be a directory path, got ''")
        self.root = Path(self.root)
        if self.max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {self.max_bytes}")
        self._sizes: dict[str, int] = {}  # see _refresh_sizes; never pickled

    # -- pickling: configuration crosses processes, counters stay local --

    def __getstate__(self) -> dict[str, Any]:
        return {"root": str(self.root), "max_bytes": self.max_bytes}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = Path(state["root"])
        self.max_bytes = int(state["max_bytes"])
        self.clock = time.time
        self.telemetry = _store_telemetry()
        self._sizes = {}

    # -- paths ---------------------------------------------------------

    def _manifest_path(self, key: str) -> Path:
        return Path(self.root) / f"{key}{_MANIFEST_SUFFIX}"

    def _payload_path(self, key: str) -> Path:
        return Path(self.root) / f"{key}{_PAYLOAD_SUFFIX}"

    def _refresh_sizes(self) -> dict[str, int]:
        """``{file name: bytes}`` for every file under the root from one
        listing, stat'ing only new names and staging files: a published
        file never changes (content-addressed key, atomic ``os.replace``),
        so a remembered size is exact, while a staging file may still be
        growing.  Threads sharing the store only replace the map or pop
        from it, never iterate it."""
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        known, fresh = self._sizes, {}
        for name in names:
            size = None if name.startswith(_STAGING_PREFIX) else known.get(name)
            try:
                fresh[name] = size or os.stat(self.root / name).st_size
            except OSError:
                continue
        self._sizes = fresh
        return dict(fresh)  # other threads' pops must not race our reads

    def keys(self) -> list[str]:
        """Keys with a published manifest (no staging file), oldest first."""
        stamped: list[tuple[float, str]] = []
        for name in self._refresh_sizes():
            key = name[: -len(_MANIFEST_SUFFIX)]
            if name.endswith(_MANIFEST_SUFFIX) and not name.startswith(_STAGING_PREFIX):
                try:
                    stamped.append((os.stat(self.root / name).st_mtime, key))
                except OSError:
                    continue
        return [key for _, key in sorted(stamped)]

    def total_bytes(self) -> int:
        """Bytes currently on disk across every file under the root."""
        return sum(self._refresh_sizes().values())

    def __len__(self) -> int:
        return len(self.keys())

    # -- load ----------------------------------------------------------

    def load(self, key: str) -> Optional[tuple[dict[str, np.ndarray], dict[str, Any]]]:
        """Return ``(arrays, meta)`` for ``key``, or ``None`` on any miss.

        Every failure mode — absent files, unparsable manifest, version or
        key mismatch, payload digest mismatch, undecodable npz — discards
        the artifact (best-effort) and reads as a miss; the caller
        regenerates and the run proceeds.
        """
        manifest_path = self._manifest_path(key)
        payload_path = self._payload_path(key)
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            if manifest_path.exists() or payload_path.exists():
                self._unlink(key, "corrupt_discarded")
            self.telemetry.add("misses")
            return None
        try:
            if manifest.get("version") != ARTIFACT_FORMAT_VERSION:
                raise ValueError("artifact format version mismatch")
            if manifest.get("key") != key:
                raise ValueError("manifest key mismatch")
            payload = payload_path.read_bytes()
            digest = hashlib.sha256(payload).hexdigest()
            if digest != manifest.get("digest"):
                raise ValueError("payload digest mismatch")
            with np.load(io.BytesIO(payload), allow_pickle=False) as bundle:
                arrays = {name: bundle[name] for name in bundle.files}
        except (OSError, ValueError, KeyError, EOFError):
            self._unlink(key, "corrupt_discarded")
            self.telemetry.add("misses")
            return None
        meta = manifest.get("meta")
        if not isinstance(meta, dict):
            meta = {}
        self._touch(manifest_path, payload_path)
        self.telemetry.merge({"hits": 1, "bytes_read": len(payload)})
        return arrays, meta

    def _touch(self, *paths: Path) -> None:
        """Refresh the LRU recency stamp on a hit."""
        now = self.clock()
        for path in paths:
            try:
                os.utime(path, (now, now))
            except OSError:
                continue

    # -- save ----------------------------------------------------------

    def save(
        self,
        key: str,
        arrays: dict[str, np.ndarray],
        meta: Optional[dict[str, Any]] = None,
    ) -> bool:
        """Persist ``arrays`` (+ JSON-able ``meta``) under ``key``.

        Returns False — never raises — when the write cannot complete
        (disk full, permissions, unserializable meta): the store is an
        accelerator, not a dependency.
        """
        try:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            payload = buffer.getvalue()
            manifest = json.dumps(
                {
                    "key": key,
                    "version": ARTIFACT_FORMAT_VERSION,
                    "digest": hashlib.sha256(payload).hexdigest(),
                    "nbytes": len(payload),
                    "meta": meta or {},
                },
                sort_keys=True,
            )
            root = Path(self.root)
            root.mkdir(parents=True, exist_ok=True)
            self._publish(root, payload, self._payload_path(key))
            self._publish(root, manifest.encode("utf-8"), self._manifest_path(key))
        except (OSError, ValueError, TypeError):
            self.telemetry.add("store_failures")
            return False
        self.telemetry.merge({"stores": 1, "bytes_written": len(payload)})
        self._touch(self._manifest_path(key), self._payload_path(key))
        self._evict_over_budget(keep=key)
        return True

    def _publish(self, root: Path, data: bytes, destination: Path) -> None:
        """Stage ``data`` as a sibling temporary, then atomically rename."""
        fd, tmp_name = tempfile.mkstemp(
            dir=root, prefix=_STAGING_PREFIX, suffix=destination.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, destination)
            self._sizes.pop(destination.name, None)  # stat it afresh
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- eviction ------------------------------------------------------

    def _evict_over_budget(self, keep: str) -> None:
        """Reap orphans, then drop least-recently-used artifacts until every
        file under the root fits; the just-saved key goes last (only when it
        alone exceeds the budget, as in the service cache)."""
        sizes = self._refresh_sizes()
        total = sum(sizes.values()) - self._reap_orphans(sizes)
        # Recency stamps are read only when over budget.
        ordered = self.keys() if total > self.max_bytes else []
        ordered.sort(key=keep.__eq__)  # stable: the just-saved key goes last
        for key in ordered:
            if total <= self.max_bytes:
                return
            total -= sizes.get(key + _MANIFEST_SUFFIX, 0) + sizes.get(key + _PAYLOAD_SUFFIX, 0)
            self._unlink(key, "evictions")

    def _reap_orphans(self, sizes: dict[str, int]) -> int:
        """Delete staging files and payloads without a manifest that are
        older than :data:`ORPHAN_GRACE_SECONDS`, counting each as
        ``corrupt_discarded``; returns the bytes freed."""
        cutoff = time.time() - ORPHAN_GRACE_SECONDS
        freed = 0
        for name, size in sizes.items():
            if not name.startswith(_STAGING_PREFIX) and not (
                name.endswith(_PAYLOAD_SUFFIX)
                and name[: -len(_PAYLOAD_SUFFIX)] + _MANIFEST_SUFFIX not in sizes
            ):
                continue
            path = self.root / name
            try:
                if os.stat(path).st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue
            self._sizes.pop(name, None)
            self.telemetry.add("corrupt_discarded")
            freed += size
        return freed

    def _unlink(self, key: str, counter: str) -> None:
        """Remove both files of ``key``, best-effort, counting why."""
        self.telemetry.add(counter)
        for path in (self._manifest_path(key), self._payload_path(key)):
            self._sizes.pop(path.name, None)
            try:
                path.unlink()
            except OSError:
                continue
