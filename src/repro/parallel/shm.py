"""Zero-copy shared-memory transport for the parallel runtime.

Worker processes must see the graph's CSR arrays (and, for the harness and
the CRN evaluator, the stacked live-edge arrays of the shared realizations)
without pickling megabytes per task.  This module packs a named set of
NumPy arrays into **one** ``multiprocessing.shared_memory`` block on the
parent side and reconstructs read-only views on the worker side:

* :func:`pack_arrays` copies the arrays into a fresh segment once and
  returns a :class:`SharedArrayBundle` (the owner, responsible for
  ``unlink``) whose picklable :class:`ArrayHandle` travels inside task
  payloads;
* :func:`attach_arrays` maps the segment in the worker and rebuilds the
  views — no copy, every worker shares the parent's physical pages.

On top of the generic bundle sit the two domain packings: a whole
:class:`~repro.graph.digraph.DiGraph` (:func:`share_graph` /
:func:`graph_from_handle`) and a homogeneous list of IC/LT realizations
(:func:`share_realizations` / :func:`realizations_from_handle`).

Worker-side attachments are cached per segment name (tasks of one fill or
sweep all reference the same segment) with a small LRU so per-round
residual graphs do not accumulate mappings forever.  Ownership is strictly
parent-side: workers never register attachments with the resource tracker
(see :func:`attach_shared_memory`), the parent unlinks when the runtime
closes or evicts.

Segments carry **generation-tagged names** minted by
:func:`next_segment_name` (``reproshm-{pid}-{token}-g{generation}``), so
that (a) a leaked segment is attributable to the run that created it —
:func:`sweep_orphans` unlinks segments whose creating process is dead —
and (b) a segment lost mid-run can be *restored* under its original name
(:meth:`SharedArrayBundle.restore`), which keeps every handle already
baked into dispatched task payloads valid across a worker-pool rebuild.
"""

from __future__ import annotations

import itertools
import os
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.diffusion.realization import (
    ICRealization,
    LTRealization,
    Realization,
    stack_worlds,
)
from repro.errors import ConfigurationError, ResourceError
from repro.graph.digraph import DiGraph

#: Worker-side attachment cache capacity (segments, not bytes).  Adaptive
#: runs publish one residual graph per round; keeping a handful of recent
#: segments mapped covers the in-flight round plus stragglers.
_ATTACH_CACHE_SIZE = 8

#: Prefix of every segment this library creates; the orphan sweeper only
#: ever considers names carrying it, so foreign segments are untouchable.
SEGMENT_PREFIX = "reproshm"

#: Where POSIX shared memory is visible as a filesystem (Linux).  On
#: platforms without it the sweeper and the free-space budget check turn
#: into no-ops — segment creation still works, it just fails the OS way.
_SHM_DIR = "/dev/shm"

#: Random per-process token: two runs under a recycled pid can never mint
#: colliding names, and a restored segment keeps its original identity.
_RUN_TOKEN = secrets.token_hex(4)

_generation = itertools.count()


def next_segment_name() -> str:
    """Mint a fresh generation-tagged segment name for this process."""
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{_RUN_TOKEN}-g{next(_generation)}"


def _segment_pid(name: str) -> Optional[int]:
    """The creating pid encoded in a registry-format name, else ``None``."""
    parts = name.split("-")
    if len(parts) != 4 or parts[0] != SEGMENT_PREFIX:
        return None
    if not (parts[3].startswith("g") and parts[3][1:].isdigit()):
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    return True


def sweep_orphans(shm_dir: str = _SHM_DIR) -> list[str]:
    """Unlink leaked segments of dead runs; returns the names removed.

    A crash between publication and the runtime finalizer (``kill -9``,
    OOM) leaves segments behind that no live process will ever unlink.
    Because every name carries its creating pid, the sweep is safe by
    construction: only ``reproshm-*`` names whose pid no longer exists are
    touched — segments of this process and of every live sibling survive.
    Best-effort and Linux-shaped (``/dev/shm``); elsewhere it is a no-op.
    """
    removed: list[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    own = os.getpid()
    for name in names:
        pid = _segment_pid(name)
        if pid is None or pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:  # pragma: no cover - raced by another sweeper
            continue
        removed.append(name)
    return removed


def _available_shm_bytes(shm_dir: str = _SHM_DIR) -> Optional[int]:
    """Free bytes on the shm filesystem, or ``None`` where unknowable."""
    try:
        stats = os.statvfs(shm_dir)
    except (OSError, AttributeError):
        return None
    return stats.f_bavail * stats.f_frsize


@dataclass(frozen=True)
class ArrayHandle:
    """Picklable descriptor of arrays packed in one shared-memory segment.

    ``specs`` maps each array name to ``(offset, shape, dtype_str)`` inside
    the segment called ``shm_name``.
    """

    shm_name: str
    specs: tuple[tuple[str, int, tuple[int, ...], str], ...]


class SharedArrayBundle:
    """Parent-side owner of one packed shared-memory segment.

    Keeps *references* to the source arrays (no extra copies — they are
    the caller's live arrays) so that :meth:`restore` can recreate the
    segment **under its original name** if it goes missing mid-run: task
    payloads carry the name, so restoration makes every already-dispatched
    handle valid again after a worker-pool rebuild.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: ArrayHandle,
        sources: Sequence[np.ndarray] = (),
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._sources = tuple(sources)
        self._released = False

    @property
    def nbytes(self) -> int:
        return self._shm.size

    @property
    def name(self) -> str:
        return self.handle.shm_name

    def segment_exists(self) -> bool:
        """Whether the *named* segment still exists for workers to attach.

        The parent's own mapping stays valid even after an unlink, so this
        probes the name — the thing task payloads reference — not the map.
        """
        path = os.path.join(_SHM_DIR, self.handle.shm_name)
        if os.path.isdir(_SHM_DIR):
            return os.path.exists(path)
        try:  # pragma: no cover - non-Linux fallback probe
            probe = attach_shared_memory(self.handle.shm_name)
        except FileNotFoundError:  # pragma: no cover
            return False
        probe.close()  # pragma: no cover
        return True  # pragma: no cover

    def restore(self) -> None:
        """Recreate a missing segment under its original name and refill it.

        Called by the runtime's pool-rebuild path when a published segment
        was lost (leaked past an unlink, swept by mistake, tmpfs purge).
        No-op if the bundle was deliberately released or the segment is
        still present.
        """
        if self._released or self.segment_exists():
            return
        self._shm.close()  # drop the stale mapping; the file is gone
        shm = shared_memory.SharedMemory(
            create=True, name=self.handle.shm_name, size=max(self.nbytes, 1)
        )
        for (_name, start, shape, dtype), source in zip(
            self.handle.specs, self._sources
        ):
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
            view[...] = source
        self._shm = shm

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._released:
            return
        self._released = True
        self._sources = ()
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def validate_publication(
    nbytes: int, max_bytes: Optional[int] = None
) -> None:
    """Publish-time budget check with a clear error, run before the OS.

    Raises :class:`~repro.errors.ResourceError` when a requested segment
    exceeds the caller's explicit ``max_bytes`` budget or the space left on
    the shm filesystem — the two ways ``SharedMemory(create=True)`` would
    otherwise fail opaquely (``OSError: [Errno 28]`` mid-copy, or a SIGBUS
    on first touch of an overcommitted mapping).
    """
    if max_bytes is not None and nbytes > max_bytes:
        raise ResourceError(
            f"shared-memory publication of {nbytes} bytes exceeds the "
            f"configured segment budget of {max_bytes} bytes"
        )
    available = _available_shm_bytes()
    if available is not None and nbytes > available:
        raise ResourceError(
            f"shared-memory publication of {nbytes} bytes exceeds the "
            f"{available} bytes available on {_SHM_DIR}"
        )


def pack_arrays(
    arrays: dict[str, np.ndarray], max_bytes: Optional[int] = None
) -> SharedArrayBundle:
    """Copy ``arrays`` into one fresh shared-memory segment.

    Arrays are laid out back to back at 64-byte-aligned offsets; the copy
    happens exactly once here, after which any number of workers map the
    same pages read-only.  The segment gets a generation-tagged registry
    name (:func:`next_segment_name`) and its size is validated against
    ``max_bytes`` / the shm filesystem budget first
    (:func:`validate_publication`).
    """
    if not arrays:
        raise ConfigurationError("cannot pack an empty array set")
    specs: list[tuple[str, int, tuple[int, ...], str]] = []
    sources: list[np.ndarray] = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = (offset + 63) & ~63  # keep every array cache-line aligned
        specs.append((name, offset, tuple(array.shape), array.dtype.str))
        sources.append(array)
        offset += array.nbytes
    validate_publication(max(offset, 1), max_bytes)
    shm = shared_memory.SharedMemory(
        create=True, name=next_segment_name(), size=max(offset, 1)
    )
    for (_name, start, shape, dtype), source in zip(specs, sources):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
        view[...] = source
    return SharedArrayBundle(shm, ArrayHandle(shm.name, tuple(specs)), sources)


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    Python 3.13+ supports ``track=False`` directly; on older versions the
    worker initializer (:func:`disable_shm_tracking`) has already patched
    the resource tracker so the attach does not get registered — either
    way only the parent, which created the segment, ever unlinks it.
    """
    try:
        return shared_memory.SharedMemory(  # type: ignore[call-arg]
            name=name, track=False
        )
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def disable_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting attachments.

    Run in every worker before the first attach.  Without it, Python < 3.13
    registers attached segments with the (shared) resource tracker, which
    then double-unlinks when the parent cleans up and spews KeyError
    tracebacks at shutdown.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:  # pragma: no cover - workers
        if rtype == "shared_memory":
            return None
        return original(name, rtype)

    resource_tracker.register = register  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Worker-side attachment cache
# ----------------------------------------------------------------------

_attached: OrderedDict[str, tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]] = (
    OrderedDict()
)


def attach_arrays(handle: ArrayHandle) -> dict[str, np.ndarray]:
    """Views onto the arrays of ``handle``'s segment (cached per segment)."""
    cached = _attached.get(handle.shm_name)
    if cached is not None:
        _attached.move_to_end(handle.shm_name)
        return cached[1]
    shm = attach_shared_memory(handle.shm_name)
    views = {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        for name, offset, shape, dtype in handle.specs
    }
    # The descriptor is only needed to create the mapping; closing it now
    # (instead of via SharedMemory.close) lets cache eviction simply drop
    # the entry below — the mapping itself stays alive for as long as any
    # NumPy view references it and is reclaimed by GC afterwards, so a
    # kernel holding views across an eviction can never hit a forced
    # unmap (SharedMemory.close unmaps even under live views).
    try:
        import os

        os.close(shm._fd)  # type: ignore[attr-defined]
        shm._fd = -1  # type: ignore[attr-defined]
    except (OSError, AttributeError):  # pragma: no cover - non-POSIX
        pass
    _attached[handle.shm_name] = (shm, views)
    while len(_attached) > _ATTACH_CACHE_SIZE:
        _attached.popitem(last=False)
    return views


# ----------------------------------------------------------------------
# Domain packings: graphs and realization batches
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphHandle:
    """Picklable reference to a shared-memory-resident :class:`DiGraph`."""

    n: int
    arrays: ArrayHandle


def share_graph(
    graph: DiGraph, max_bytes: Optional[int] = None
) -> tuple[SharedArrayBundle, GraphHandle]:
    """Pack a graph's six CSR arrays into one shared segment."""
    out_indptr, out_targets, out_probs = graph.out_csr
    in_indptr, in_sources, in_probs = graph.in_csr
    bundle = pack_arrays(
        {
            "out_indptr": out_indptr,
            "out_targets": out_targets,
            "out_probs": out_probs,
            "in_indptr": in_indptr,
            "in_sources": in_sources,
            "in_probs": in_probs,
        },
        max_bytes=max_bytes,
    )
    return bundle, GraphHandle(graph.n, bundle.handle)


def graph_from_handle(handle: GraphHandle) -> DiGraph:
    """Rebuild a zero-copy :class:`DiGraph` over the shared CSR arrays."""
    views = attach_arrays(handle.arrays)
    return DiGraph(
        handle.n,
        views["out_indptr"],
        views["out_targets"],
        views["out_probs"],
        views["in_indptr"],
        views["in_sources"],
        views["in_probs"],
    )


@dataclass(frozen=True)
class RealizationsHandle:
    """Picklable reference to a homogeneous batch of shared realizations.

    ``kind`` is ``"ic"`` (stacked per-realization live-edge flags, shape
    ``(count, m)``) or ``"lt"`` (stacked chosen in-edge sources, shape
    ``(count, n)``).
    """

    kind: str
    count: int
    arrays: ArrayHandle


def share_realizations(
    realizations: Sequence[Realization], max_bytes: Optional[int] = None
) -> tuple[SharedArrayBundle, RealizationsHandle]:
    """Stack a homogeneous IC/LT realization batch into shared memory.

    A mixed or foreign batch raises :class:`~repro.errors.DiffusionError`
    (from :func:`~repro.diffusion.realization.stack_worlds`).
    """
    kind, worlds = stack_worlds(realizations)
    bundle = pack_arrays(
        {"worlds": worlds.reshape(len(realizations), -1)}, max_bytes=max_bytes
    )
    return bundle, RealizationsHandle(kind, len(realizations), bundle.handle)


def realizations_from_handle(
    graph: DiGraph, handle: RealizationsHandle, indices: Sequence[int]
) -> list[Realization]:
    """Rebuild the realizations at ``indices`` as views over shared rows."""
    worlds = attach_arrays(handle.arrays)["worlds"]
    if handle.kind == "ic":
        return [ICRealization(graph, worlds[i]) for i in indices]
    return [LTRealization(graph, worlds[i]) for i in indices]
