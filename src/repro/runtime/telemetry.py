"""One thread-safe sink for a run's counters and recorded decisions.

Each owner of run facts (the execution context, the pool store, the
parallel runtime, the service and its cache, the kernel dispatch layer)
keeps them in one :class:`Telemetry`.  Counts cross processes only as
explicit deltas: a worker chunk returns :meth:`Telemetry.since` and the
parent applies it with :meth:`Telemetry.merge`.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import Union, cast

Number = Union[int, float]


class Telemetry:
    """Summed counters plus last-write decisions behind one lock.

    ``declared`` counters start at their given zero (``0`` or ``0.0``), so
    :meth:`snapshot` lists them in order even if they never fire.
    """

    def __init__(self, **declared: Number) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, Number] = dict(declared)
        self._values: dict[str, object] = {}

    def add(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self.merge({name: amount})

    def set(self, **values: object) -> None:
        """Record decisions; a later write of the same name wins."""
        with self._lock:
            self._values.update(values)

    def snapshot(self) -> dict[str, object]:
        """A copy of every decision and counter (counters win a name clash)."""
        with self._lock:
            return {**self._values, **self._counts}

    def since(self, earlier: Mapping[str, object]) -> dict[str, Number]:
        """The counters that changed or appeared after ``earlier`` (a
        :meth:`snapshot`); merging it recreates even a counter that stayed 0."""
        with self._lock:
            counts = dict(self._counts)
        return {
            name: value - cast(Number, earlier.get(name, 0))
            for name, value in counts.items()
            if name not in earlier or value != earlier[name]
        }

    def merge(self, delta: Mapping[str, Number]) -> None:
        """Add a :meth:`since` delta (from another process) into this sink."""
        with self._lock:
            for name, amount in delta.items():
                self._counts[name] = self._counts.get(name, 0) + amount


__all__ = ["Telemetry"]
