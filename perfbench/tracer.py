"""Outside-in layer tracing: spans recorded around the public functions of
each ``repro.*`` module, installed from the benchmark's own files.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install` replaces
each attribute listed in :data:`LAYERS` with a wrapper that records a span
``(id, name, start, end, parent)`` into an in-memory list, and optionally
feeds a counter hook with the call's arguments and result.  Layer self time
is a span's duration minus the durations of its direct children (spans of
one thread nest strictly, so the children never overlap).

Scope, by construction:

* Wrappers live only in the process that installs them.  Worker processes
  of :class:`~repro.parallel.ParallelRuntime` start with ``spawn`` and
  import ``repro`` afresh, so their time shows only as ``parallel.map``
  in the parent.  Worker spans need telemetry inside the program.
* A function imported by name (``from repro.x import f``) is looked up in
  the importing module's namespace, so it is wrapped there: every lookup
  site is listed separately below (``graph_fingerprint``,
  ``expand_labeled_frontier``, ``shrink_residual``,
  ``sample_shared_realizations``).  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional


def _count_sets(tracer: Tracer, args: tuple, result: Any) -> None:
    selection, _carry = result
    diagnostics = selection.diagnostics
    tracer.counts["sampling.sets_fresh"] += int(diagnostics.samples_generated)
    tracer.counts["sampling.sets_carried"] += int(diagnostics.samples_carried)


def _count_levels(tracer: Tracer, args: tuple, result: Any) -> None:
    positions = result[0]
    tracer.counts["diffusion.bfs_levels"] += 1
    tracer.counts["diffusion.edges_scanned"] += int(len(positions))


def _count_store_load(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["store.misses" if result is None else "store.hits"] += 1


def _count_faults(tracer: Tracer, args: tuple, result: Any) -> None:
    runtime = args[0]
    tracer.counts["parallel.faults"] += int(
        sum(
            value
            for key, value in runtime.fault_stats.items()
            if key != "recovered_seconds"
        )
    )


@dataclass(frozen=True)
class Layer:
    """One wrapped lookup site.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.  With
    ``span=False`` the wrapper only feeds ``hook`` (used where a span would
    split the parent layer's self time, e.g. per-level BFS expansion).
    """

    name: str
    target: str
    hook: Optional[Callable[[Tracer, tuple, Any], None]] = None
    span: bool = True


#: Every wrapped site, outermost layers first.  Several sites may share a
#: span name (one function, many lookup sites; TRIM and TRIM-B).
LAYERS: tuple[Layer, ...] = (
    Layer("experiments.worlds", "repro.experiments.harness:sample_shared_realizations"),
    Layer("baselines.ateuc", "repro.baselines.ateuc:ATEUC.run"),
    Layer("baselines.celf", "repro.baselines.celf:CELFMinimizer.run"),
    Layer("parallel.map", "repro.parallel.runtime:ParallelRuntime.map_ordered"),
    Layer("parallel.publish", "repro.parallel.runtime:ParallelRuntime.publish_graph"),
    Layer(
        "parallel.publish",
        "repro.parallel.runtime:ParallelRuntime.publish_realizations",
    ),
    Layer(
        "parallel.close",
        "repro.parallel.runtime:ParallelRuntime.close",
        hook=_count_faults,
        span=False,
    ),
    Layer("core.select", "repro.core.trim:TrimSelector.select_with_pool", _count_sets),
    Layer("core.select", "repro.core.trim_b:TrimBSelector.select_with_pool", _count_sets),
    Layer("core.observe", "repro.core.session:AdaptiveSessionBatch.observe_batch"),
    Layer("graph.shrink", "repro.core.session:shrink_residual"),
    Layer("diffusion.crn", "repro.diffusion.montecarlo:CRNSpreadEvaluator.spread_matrix"),
    Layer("sampling.revalidate", "repro.sampling.mrr:CarriedMRRPool.revalidate"),
    Layer("sampling.export", "repro.sampling.mrr:MRRCollection.export_carry"),
    Layer("sampling.greedy", "repro.sampling.coverage:CoverageIndex.greedy_max_coverage"),
    Layer("sampling.coverage_add", "repro.sampling.coverage:CoverageIndex.add_batch"),
    Layer("sampling.roots_draw", "repro.sampling.engine:RandomizedRoundingRootDrawer.draw"),
    Layer(
        "diffusion.reverse_bfs",
        "repro.diffusion.ic:IndependentCascade.reverse_sample_batch",
    ),
    Layer(
        "diffusion.reverse_bfs",
        "repro.diffusion.lt:LinearThreshold.reverse_sample_batch",
    ),
    Layer(
        "diffusion.expand",
        "repro.diffusion.ic:expand_labeled_frontier",
        hook=_count_levels,
        span=False,
    ),
    Layer(
        "diffusion.expand",
        "repro.diffusion.lt:expand_labeled_frontier",
        hook=_count_levels,
        span=False,
    ),
    Layer("graph.fingerprint", "repro.sampling.engine:graph_fingerprint"),
    Layer("graph.fingerprint", "repro.store:graph_fingerprint"),
    Layer("store.load", "repro.store.disk:PoolStore.load", _count_store_load),
    Layer("store.save", "repro.store.disk:PoolStore.save"),
)


class Tracer:
    """In-memory spans and counters; thread-safe for the service's
    handler threads (each thread keeps its own span stack)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``func`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def _wrapper(self, layer: Layer, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        hook = layer.hook

        if layer.span:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                result = tracer.span(layer.name, original, *args, **kwargs)
                if hook is not None:
                    with tracer._lock:
                        hook(tracer, args, result)
                return result
        else:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                result = original(*args, **kwargs)
                with tracer._lock:
                    hook(tracer, args, result)
                return result

        return traced

    def install(self) -> None:
        """Wrap every lookup site in :data:`LAYERS` (undo with :meth:`uninstall`)."""
        for layer in LAYERS:
            module_name, _, path = layer.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return table
