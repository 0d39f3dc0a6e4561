"""Cross-request cache: graphs and finished mRR pools in one LRU.

Two entry kinds share one LRU byte budget:

* **graph entries** — the loaded :class:`~repro.graph.digraph.DiGraph`
  for a ``(dataset, n, graph_seed)`` key.  Holding the *same object*
  across requests is what lets a shared parallel runtime reuse its
  published shared-memory segment (``publish_graph`` is keyed by object
  identity), so with ``--jobs >= 2`` the graph is packed into shm once,
  not once per request.
* **pool entries** — a :class:`~repro.sampling.mrr.CarriedMRRPool`
  snapshot of a finished estimate's mRR pool.

Pool keys are **exact** — ``(graph_key, model, eta, theta, pool_seed,
batch_size)`` — so a hit is a replay of the cold run: the estimate
handler checks the snapshot's integrity
(:meth:`~repro.sampling.mrr.CarriedMRRPool.replay`) and installs it as
is.  A snapshot that fails the check is dropped
(:meth:`ServiceCache.discard`) and replaced by the rebuilt pool in the
same settle step.  This cache is the memory tier only; persistence
across restarts is the :class:`~repro.store.PoolStore` the estimate
context writes through.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.runtime.telemetry import Telemetry

#: Default LRU byte budget (graph CSR bytes + pool array bytes).
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

CacheKey = tuple[Any, ...]


@dataclass
class _Entry:
    value: Any
    nbytes: int


@dataclass
class ServiceCache:
    """One LRU byte budget over graph and pool entries.

    Not thread-safe by itself: the server mutates it exclusively from the
    event-loop thread (lookups before dispatching compute, stores after
    compute returns), which serializes every access without a lock.
    """

    max_bytes: int = DEFAULT_CACHE_BYTES
    #: Counters the health endpoint reports.
    telemetry: Telemetry = field(
        default_factory=lambda: Telemetry(
            hits=0, misses=0, stores=0, evictions=0, invalidations=0
        ),
        init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        if not isinstance(self.max_bytes, int) or self.max_bytes < 0:
            raise ConfigurationError(
                f"max_bytes must be a non-negative int, got {self.max_bytes!r}"
            )
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def get(self, key: CacheKey) -> Optional[Any]:
        """The cached value (now most recent), or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.telemetry.add("misses")
            return None
        self._entries.move_to_end(key)
        self.telemetry.add("hits")
        return entry.value

    def put(self, key: CacheKey, value: Any, nbytes: int) -> bool:
        """Store ``value``, evicting least-recent entries past the budget.

        An entry larger than the whole budget is not stored (storing it
        would evict everything for a guaranteed-evicted entry); returns
        whether the entry was stored.
        """
        if nbytes > self.max_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = _Entry(value=value, nbytes=nbytes)
        self._bytes += nbytes
        self.telemetry.add("stores")
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.telemetry.add("evictions")
        return True

    def discard(self, key: CacheKey) -> None:
        """Drop a key whose cached entry failed its integrity check."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.nbytes
        self.telemetry.add("invalidations")
