"""The on-disk artifact store: one self-verifying file per artifact.

Layout: each artifact is one file in one flat directory,
``<root>/<key>.art``::

    magic (8 bytes) | SHA-256 (32 bytes) | header length (uint64 LE)
    JSON header: key, format version, caller meta, and per array its
                 name, dtype, shape, offset and nbytes
    zero padding to a 64-byte boundary
    data region: the raw array bytes, each array at a 64-byte-aligned
                 offset from the region's start

The SHA-256 covers everything after itself (header length, header,
padding and data), so a flipped byte in the caller meta (say, a restored
generator state) is caught like one in the arrays.

Guarantees:

* **Atomic writes** — a save stages the whole file as a temporary in the
  store directory and publishes it with one ``os.replace``, so readers
  either see a complete artifact or none.  Concurrent writers of the same
  key are safe: the last ``os.replace`` wins.
* **Verified loads** — a load reads the file once, checks the prefix, the
  digest, the header (key, version, and for every array a plain numeric
  dtype, a non-negative shape, ``nbytes == prod(shape) * itemsize`` and a
  range inside the data region), then returns writable views of the read
  buffer.  Any failure discards the artifact and returns ``None`` —
  callers silently regenerate, the store **never crashes a run**.
  Discards are counted in :attr:`PoolStore.telemetry`.
* **Bounded size** — the budget check keeps a ``{file name: bytes}`` map
  from the last directory listing plus the instance's own writes.  It
  lists the directory again only when the instance has no map yet or when
  its own writes since the listing exceed 1/8 of the headroom the listing
  left, which covers every case where its running total (the listing
  plus its writes) is over ``max_bytes``.
  A listing deletes a crashed writer's leftovers — staging temporaries and
  format-1 files (``<key>.npz`` and ``<key>.json``) older than
  :data:`ORPHAN_GRACE_SECONDS` — then, if every file under the root adds
  up to more than the low-water mark (:data:`LOW_WATER` of ``max_bytes``),
  evicts least-recently-used artifacts (file mtime, refreshed on every
  hit) down to that mark.  Every listing therefore leaves at least
  ``max_bytes / 16`` of headroom, so even a full store lists at most once
  per ``max_bytes / 128`` bytes written (every 9 saves of equal artifacts
  at a 1,024-artifact budget) instead of on every save.

  A single writer sees every write, so it lists whenever the store is over
  budget and fits it after every save, as a rescan on every save would.  ``W`` concurrent writers
  cannot see each other's writes between listings; each adds at most 1/8
  of the headroom its own last listing left, plus the one artifact whose
  save triggers its next listing.  For ``W <= 8`` writers whose last
  listings saw the same total (writers that start together, such as a
  sweep's worker shards) those unseen writes sum to at most that
  headroom, so disk stays within the budget plus ``W`` artifacts.  A
  writer whose last listing is stale (it listed a much emptier store than
  the others have since) can add up to 1/8 of the headroom it saw, so the
  worst case for ``W`` writers is the budget plus ``(W - 1) / 8`` of it
  plus ``W`` artifacts.

The store is picklable (configuration only; a copy counts from zero and
starts without a size map), so an
:class:`~repro.runtime.context.ExecutionContext` carrying one can cross a
process boundary; worker-side stores operate on the same directory and
remain safe thanks to the atomic publish, and a worker chunk ships its
copy's counts back to the parent as a delta.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
import threading
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

_SUFFIX = ".art"
_LEGACY_SUFFIXES = (".npz", ".json")  # format 1: payload + manifest pairs
_STAGING_PREFIX = ".tmp-"  # a staged temporary awaiting its atomic publish

_MAGIC = b"REPROART"
_PREFIX = struct.Struct("<8s32sQ")  # magic, SHA-256, header length
_DIGESTED = struct.calcsize("<8s32s")  # the SHA-256 covers all that follows it
_ALIGN = 64
#: Array kinds an artifact may hold: bool, signed/unsigned int, float,
#: complex.  Object, void and structured dtypes are refused on both sides.
_KINDS = frozenset("biufc")

#: Age past which a staging temporary or a format-1 file is a crashed (or
#: superseded) writer's leftover rather than an in-flight publish: a live
#: writer's files are younger (writing stamps them, ``os.replace`` keeps
#: the stamp).
ORPHAN_GRACE_SECONDS = 600.0


#: The low-water mark as a share of ``max_bytes``: a listing that finds the
#: store above it evicts down to it, leaving 1/16 of the budget as headroom.
LOW_WATER = 15 / 16


#: Store counters, in the order ``health`` and diagnostics list them.
_COUNTERS = (
    "hits", "misses", "stores", "store_failures", "evictions",
    "corrupt_discarded", "bytes_read", "bytes_written",
)


def _store_telemetry() -> Telemetry:
    return Telemetry(**dict.fromkeys(_COUNTERS, 0))


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _plain_dtype(dtype: np.dtype) -> bool:
    return dtype.kind in _KINDS and dtype.fields is None and dtype.subdtype is None


def _encode(key: str, arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> bytes:
    """The artifact file for ``arrays`` and ``meta``; raises ``TypeError``
    for an array dtype the loader would refuse."""
    specs: list[dict[str, Any]] = []
    chunks: list[Union[bytes, memoryview]] = []
    offset = 0
    for name, value in arrays.items():
        array = np.asarray(value, order="C")
        if not _plain_dtype(array.dtype):
            raise TypeError(f"array {name!r} has unsupported dtype {array.dtype}")
        start = _aligned(offset)
        chunks.append(bytes(start - offset))
        chunks.append(array.reshape(-1).view(np.uint8).data)
        specs.append({
            "name": name, "dtype": array.dtype.str, "shape": list(array.shape),
            "offset": start, "nbytes": array.nbytes,
        })
        offset = start + array.nbytes
    header = json.dumps(
        {"key": key, "version": ARTIFACT_FORMAT_VERSION, "meta": meta, "arrays": specs},
        sort_keys=True,
    ).encode("utf-8")
    padding = bytes(_aligned(_PREFIX.size + len(header)) - _PREFIX.size - len(header))
    body = b"".join([struct.pack("<Q", len(header)), header, padding, *chunks])
    return _MAGIC + hashlib.sha256(body).digest() + body


def _decode(key: str, buffer: memoryview) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """``(arrays, meta)`` as writable views of ``buffer``; raises
    ``ValueError`` when the file is not a sound artifact for ``key``."""
    if len(buffer) < _PREFIX.size:
        raise ValueError("artifact shorter than its prefix")
    magic, digest, header_len = _PREFIX.unpack_from(buffer)
    if magic != _MAGIC:
        raise ValueError("bad magic")
    if not 0 < header_len <= len(buffer) - _PREFIX.size:
        raise ValueError("header length out of range")
    if hashlib.sha256(buffer[_DIGESTED:]).digest() != digest:
        raise ValueError("digest mismatch")
    header = json.loads(bytes(buffer[_PREFIX.size:_PREFIX.size + header_len]))
    if not isinstance(header, dict):
        raise ValueError("header is not an object")
    if header.get("version") != ARTIFACT_FORMAT_VERSION:
        raise ValueError("artifact format version mismatch")
    if header.get("key") != key:
        raise ValueError("header key mismatch")
    specs = header.get("arrays")
    if not isinstance(specs, list):
        raise ValueError("header has no array list")
    data_start = _aligned(_PREFIX.size + header_len)
    data_len = len(buffer) - data_start
    arrays: dict[str, np.ndarray] = {}
    for spec in specs:
        if not isinstance(spec, dict):
            raise ValueError("array spec is not an object")
        name, dtype_str = spec.get("name"), spec.get("dtype")
        shape, offset, nbytes = spec.get("shape"), spec.get("offset"), spec.get("nbytes")
        if not isinstance(name, str) or name in arrays or not isinstance(dtype_str, str):
            raise ValueError("bad array name or dtype")
        dtype = np.dtype(dtype_str)  # TypeError for an unknown dtype string
        if not _plain_dtype(dtype):
            raise ValueError(f"unsupported dtype {dtype_str!r}")
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise ValueError("bad shape")
        if type(offset) is not int or type(nbytes) is not int or offset % _ALIGN:
            raise ValueError("bad offset or nbytes")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize or not 0 <= offset <= data_len - nbytes:
            raise ValueError("array outside the data region")
        arrays[name] = np.frombuffer(
            buffer, dtype=dtype, count=count, offset=data_start + offset
        ).reshape(shape)
    meta = header.get("meta")
    return arrays, meta if isinstance(meta, dict) else {}


@dataclass
class PoolStore:
    """Content-addressed artifact store for pools and realization batches.

    Parameters
    ----------
    root:
        Directory holding the artifacts; created on first save.
    max_bytes:
        Byte budget over every file under ``root``; least-recently-used
        artifacts are evicted at a listing until the store fits.
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
        self._reset_local_state()

    def _reset_local_state(self) -> None:
        """Per-instance state that never crosses a pickle: the budget
        bookkeeping (see :meth:`_evict_over_budget`) and its lock."""
        self._lock = threading.Lock()
        self._root_ready = False
        self._sizes: Optional[dict[str, int]] = None  # None: never listed
        self._listed_total = 0  # what the last listing left on disk
        self._written = 0  # own bytes written since the last listing

    # -- pickling: configuration crosses processes, counters stay local --

    def __getstate__(self) -> dict[str, Any]:
        return {"root": str(self.root), "max_bytes": self.max_bytes}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = Path(state["root"])
        self.max_bytes = int(state["max_bytes"])
        self.clock = time.time
        self.telemetry = _store_telemetry()
        self._reset_local_state()

    # -- listing -------------------------------------------------------

    def _path(self, key: str) -> Path:
        return Path(self.root) / f"{key}{_SUFFIX}"

    def _list_sizes(self) -> dict[str, int]:
        """``{file name: bytes}`` for every file under the root from one
        listing, stat'ing only names the last listing did not see and
        staging files: a published file never changes (content-addressed
        key, atomic ``os.replace``), so a remembered size is exact, while a
        staging file may still be growing.  Installs the result as the
        size map; call with the lock held."""
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        known = self._sizes or {}
        fresh: dict[str, int] = {}
        for name in names:
            size = None if name.startswith(_STAGING_PREFIX) else known.get(name)
            if size is None:
                try:
                    size = os.stat(os.path.join(self.root, name)).st_size
                except OSError:
                    continue
            fresh[name] = size
        self._sizes = fresh
        self._listed_total = sum(fresh.values())
        self._written = 0
        return dict(fresh)

    def keys(self) -> list[str]:
        """Keys of published artifacts (no staging file), oldest first."""
        with self._lock:
            names = self._list_sizes()
        return self._stamped_keys(names)

    def _stamped_keys(self, names: dict[str, int]) -> list[str]:
        stamped: list[tuple[float, str]] = []
        for name in names:
            if name.endswith(_SUFFIX) and not name.startswith(_STAGING_PREFIX):
                try:
                    mtime = os.stat(os.path.join(self.root, name)).st_mtime
                except OSError:
                    continue
                stamped.append((mtime, name[: -len(_SUFFIX)]))
        return [key for _, key in sorted(stamped)]

    def total_bytes(self) -> int:
        """Bytes currently on disk across every file under the root."""
        with self._lock:
            return sum(self._list_sizes().values())

    def __len__(self) -> int:
        return len(self.keys())

    # -- load ----------------------------------------------------------

    def load(self, key: str) -> Optional[tuple[dict[str, np.ndarray], dict[str, Any]]]:
        """Return ``(arrays, meta)`` for ``key``, or ``None`` on any miss.

        Every failure mode — unreadable file, bad prefix, digest mismatch,
        unparsable header, version or key mismatch, an array spec outside
        the rules in the module docstring — discards the artifact
        (best-effort) and reads as a miss; the caller regenerates and the
        run proceeds.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                # Uninitialised, unlike a bytearray: the read fills it.
                buffer = np.empty(os.fstat(handle.fileno()).st_size, dtype=np.uint8).data
                if handle.readinto(buffer) != len(buffer):
                    raise ValueError("artifact changed size while read")
            arrays, meta = _decode(key, buffer)
        except FileNotFoundError:
            self.telemetry.add("misses")
            return None
        except (OSError, ValueError, TypeError, OverflowError, RecursionError):
            self._unlink(path, "corrupt_discarded")
            self.telemetry.add("misses")
            return None
        self._touch(path)
        self.telemetry.merge({"hits": 1, "bytes_read": len(buffer)})
        return arrays, meta

    def _touch(self, path: Path) -> None:
        """Refresh the LRU recency stamp."""
        now = self.clock()
        try:
            os.utime(path, (now, now))
        except OSError:
            pass

    # -- save ----------------------------------------------------------

    def save(
        self,
        key: str,
        arrays: dict[str, np.ndarray],
        meta: Optional[dict[str, Any]] = None,
    ) -> bool:
        """Persist ``arrays`` (+ JSON-able ``meta``) under ``key``.

        Returns False — never raises — when the write cannot complete
        (disk full, permissions, unserializable meta, an object or
        structured dtype): the store is an accelerator, not a dependency.
        """
        path = self._path(key)
        try:
            data = _encode(key, arrays, meta or {})
            if not self._root_ready:
                Path(self.root).mkdir(parents=True, exist_ok=True)
                self._root_ready = True
            self._publish(data, path)
        except (OSError, ValueError, TypeError):
            self._root_ready = False  # the root may have been removed
            self.telemetry.add("store_failures")
            return False
        self.telemetry.merge({"stores": 1, "bytes_written": len(data)})
        self._touch(path)
        with self._lock:
            if self._sizes is not None:
                self._sizes[path.name] = len(data)
            self._written += len(data)
            self._evict_over_budget(keep=key)
        return True

    def _publish(self, data: bytes, destination: Path) -> None:
        """Stage ``data`` as a sibling temporary, then atomically rename."""
        fd, tmp_name = tempfile.mkstemp(
            dir=destination.parent, prefix=_STAGING_PREFIX, suffix=_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, destination)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- eviction ------------------------------------------------------

    def _evict_over_budget(self, keep: str) -> None:
        """List the directory only when the store may be over budget (see
        the module docstring); then reap orphans and drop least-recently-used
        artifacts until every file under the root fits the low-water mark,
        the just-saved key last (only when it alone exceeds the budget, as
        in the service cache).  Call with the lock held.

        The instance's running total (the last listing plus its own writes)
        never exceeds ``_listed_total + _written``, so the 1/8 rule below
        also lists whenever that total is over ``max_bytes``."""
        if self._sizes is not None and 8 * self._written <= self.max_bytes - self._listed_total:
            return
        sizes = self._list_sizes()
        total = self._listed_total - self._reap_orphans(sizes)
        low_water = int(self.max_bytes * LOW_WATER)
        # Recency stamps are read only when above the mark.
        ordered = self._stamped_keys(sizes) if total > low_water else []
        ordered.sort(key=keep.__eq__)  # stable: the just-saved key goes last
        for key in ordered:
            if total <= (self.max_bytes if key == keep else low_water):
                break
            total -= sizes[key + _SUFFIX]
            self._unlink(self._path(key), "evictions")
        self._listed_total = total

    def _reap_orphans(self, sizes: dict[str, int]) -> int:
        """Delete staging files and format-1 files older than
        :data:`ORPHAN_GRACE_SECONDS`, counting each as ``corrupt_discarded``;
        returns the bytes freed."""
        cutoff = time.time() - ORPHAN_GRACE_SECONDS
        freed = 0
        for name, size in sizes.items():
            if not name.startswith(_STAGING_PREFIX) and not name.endswith(_LEGACY_SUFFIXES):
                continue
            path = Path(self.root) / name
            try:
                if os.stat(path).st_mtime >= cutoff:
                    continue
            except OSError:
                continue
            self._unlink(path, "corrupt_discarded")
            freed += size
        return freed

    def _unlink(self, path: Path, counter: str) -> None:
        """Remove one file, best-effort, counting why."""
        self.telemetry.add(counter)
        try:
            path.unlink()
        except OSError:
            pass
