"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload solve-ic --seed 0 --seconds 25 --trace 0

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` runs every unit twice, untraced and then with spans around
the public functions of each ``repro`` layer (see ``tracer.py``), and
prints the per-layer metrics plus the tracing overhead.  The
second-to-last stdout line is a JSON ``record`` (host and provenance block,
every metric, every failed check); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means every
correctness check passed, 1 that one failed, 2 that the program under test
could not be found.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

#: Set-ups per run (at least this many, and for at least SETUP_SECONDS);
#: ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

#: The ROADMAP's layer names and the per-layer metrics that measure them.
ROADMAP_LAYERS: dict[str, tuple[str, ...]] = {
    "root drawing": ("sampling.roots_draw_s", "sampling.roots_draw_calls"),
    "BFS levels": (
        "diffusion.reverse_bfs_s",
        "diffusion.bfs_levels",
        "diffusion.edges_scanned",
    ),
    "coverage and greedy": (
        "sampling.coverage_add_s",
        "sampling.greedy_s",
        "sampling.greedy_calls",
        "core.select_s",
    ),
    "carry revalidation": (
        "sampling.revalidate_s",
        "sampling.export_s",
        "sampling.sets_fresh",
        "sampling.sets_carried",
        "sampling.carry_ratio",
    ),
    "CRN sweeps": ("diffusion.crn_s", "diffusion.crn_calls", "baselines.celf_s"),
    "store I/O": (
        "store.load_s",
        "store.save_s",
        "store.hits",
        "store.misses",
        "store.entries",
        "store.bytes",
        "graph.fingerprint_s",
        "graph.fingerprint_calls",
    ),
    "dispatch/IPC": (
        "parallel.map_s",
        "parallel.map_calls",
        "parallel.publish_s",
        "parallel.faults",
    ),
}

#: Per-layer self seconds per unit of work, by span name.
SPAN_SECONDS = {
    "core.select_s": "core.select",
    "core.observe_s": "core.observe",
    "sampling.roots_draw_s": "sampling.roots_draw",
    "sampling.coverage_add_s": "sampling.coverage_add",
    "sampling.greedy_s": "sampling.greedy",
    "sampling.revalidate_s": "sampling.revalidate",
    "sampling.export_s": "sampling.export",
    "diffusion.reverse_bfs_s": "diffusion.reverse_bfs",
    "diffusion.crn_s": "diffusion.crn",
    "graph.shrink_s": "graph.shrink",
    "graph.fingerprint_s": "graph.fingerprint",
    "store.load_s": "store.load",
    "store.save_s": "store.save",
    "parallel.map_s": "parallel.map",
    "parallel.publish_s": "parallel.publish",
    "baselines.ateuc_s": "baselines.ateuc",
    "baselines.celf_s": "baselines.celf",
    "experiments.worlds_s": "experiments.worlds",
}
#: Per-layer calls per unit of work, by span name.
SPAN_CALLS = {
    "core.rounds": "core.select",
    "sampling.roots_draw_calls": "sampling.roots_draw",
    "sampling.greedy_calls": "sampling.greedy",
    "diffusion.crn_calls": "diffusion.crn",
    "graph.fingerprint_calls": "graph.fingerprint",
    "parallel.map_calls": "parallel.map",
}
#: Tracer counters per unit of work.
COUNTERS = (
    "sampling.sets_fresh",
    "sampling.sets_carried",
    "diffusion.bfs_levels",
    "diffusion.edges_scanned",
    "store.hits",
    "store.misses",
    "parallel.faults",
)
#: Per-unit means of what the workload itself measured (untraced phase).
UNIT_EXTRAS = ("store.entries", "store.bytes", "sweep.cold_s", "sweep.warm_s")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def read_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def host_block(root: Path, seed: int) -> dict[str, Any]:
    import numpy

    from repro.kernels import resolve_backend

    try:
        # A checkout without its own .git may sit inside another repository.
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split() or ("", "")
    except (OSError, ValueError, subprocess.SubprocessError):
        top, sha = "", ""
    if Path(top).resolve() != root.resolve():
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": resolve_backend("auto").name,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "seed": seed,
    }


def run_units(workload, items, seconds: float, min_units: int, tracer) -> tuple[list, dict]:
    """Run units until ``seconds`` have passed and ``min_units`` are done.

    With a ``tracer``, every item runs untraced and then traced, so that
    drift in host speed hits both halves alike.  Returns
    ``[(untraced UnitResult, traced UnitResult or None)]`` and the info
    from ``workload.stop()``.
    """
    from workloads import UnitResult

    def guarded(item, traced: bool) -> UnitResult:
        started = time.perf_counter()
        try:
            return workload.unit(item, traced)
        except Exception as exc:  # a crashing unit is a failed operation
            return UnitResult(seconds=time.perf_counter() - started, failures=[repr(exc)])

    done = []
    workload.start(tracer)
    try:
        started = time.perf_counter()
        for item in items:
            if len(done) >= min_units and time.perf_counter() - started >= seconds:
                break
            plain = guarded(item, False)
            done.append((plain, guarded(item, True) if tracer is not None else None))
    finally:
        info = workload.stop()
    return done, info


def end_to_end(workload, results: list, setups: list[float], min_units: int) -> dict[str, float]:
    latencies = [ms for result in results for ms in result.latencies_ms]
    seed_counts = [count for result in results[:min_units] for count in result.seed_counts]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result.seconds for result in results),
        "latency_ms_p50": percentile(latencies, 50),
        "latency_ms_p95": percentile(latencies, 95),
        "throughput_per_s": sum(r.ops for r in results) / sum(r.seconds for r in results),
        "seeds_mean": statistics.fmean(seed_counts) if seed_counts else 0.0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def per_layer(plain: list, traced: list, info: dict) -> dict[str, float]:
    """Per-layer metrics of the traced units, normalised per unit of work."""
    units = len(traced)
    trace = info.get("trace") or {"spans": {}, "counts": {}}
    spans, counts = trace["spans"], trace["counts"]
    metrics: dict[str, float] = {}
    for metric, span in SPAN_SECONDS.items():
        metrics[metric] = spans.get(span, {}).get("self_s", 0.0) / units
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = spans.get(span, {}).get("calls", 0) / units
    for counter in COUNTERS:
        metrics[counter] = counts.get(counter, 0) / units
    moved = metrics["sampling.sets_fresh"] + metrics["sampling.sets_carried"]
    metrics["sampling.carry_ratio"] = metrics["sampling.sets_carried"] / moved if moved else 0.0
    for extra in UNIT_EXTRAS:
        metrics[extra] = statistics.fmean(result.extra.get(extra, 0.0) for result in plain)
    metrics.update(service_metrics(plain, info.get("health") or {}))

    layer_self = sum(
        row["self_s"] for name, row in spans.items() if not name.startswith("bench.")
    )
    if "bench.unit" in spans:
        covered = spans["bench.unit"]["total_s"]
    else:  # the server: layer time against the compute time it reported
        covered = sum(r[2] for result in traced for r in result.requests) / 1e3
    metrics["trace.wall_s"] = statistics.median(result.seconds for result in traced)
    # Median over pairs of the same unit, robust to one disturbed unit.
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.seconds / p.seconds for p, t in zip(plain, traced)) - 1.0
    )
    metrics["trace.coverage"] = layer_self / covered if covered else 0.0
    return metrics


def service_metrics(results: list, health: dict[str, Any]) -> dict[str, float]:
    """Per-layer service numbers read from the protocol (reply ``ms``,
    ``meta.carry`` and the ``health`` op); zero when not serving."""
    requests = [r for result in results for r in result.requests]
    compute = [ms for _op, _lat, ms, _carry in requests]
    estimates = [r for r in requests if r[0] == "estimate"]
    cache = health.get("cache", {})
    return {
        "service.compute_ms_p50": percentile(compute, 50),
        "service.compute_ms_p95": percentile(compute, 95),
        "service.wait_ms_p50": percentile([lat - ms for _op, lat, ms, _c in requests], 50),
        "service.solve_ms_p50": percentile([r[2] for r in requests if r[0] == "solve"], 50),
        "service.estimate_ms_p50": percentile([r[2] for r in estimates], 50),
        "service.carry_adopted_ratio": (
            sum(r[3] == "adopted" for r in estimates) / len(estimates) if estimates else 0.0
        ),
        "service.cache_hits": float(cache.get("hits", 0)),
        "service.cache_misses": float(cache.get("misses", 0)),
    }


def measure(args: argparse.Namespace, root: Path, scratch: Path) -> dict[str, Any]:
    from tracer import Tracer
    from workloads import PROFILES, WORKLOADS

    profile = PROFILES["quick" if args.quick else "full"][args.workload]
    workload = WORKLOADS[args.workload](profile, scratch)
    steal_before, ticks_before = read_cpu_ticks()
    try:
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            setups.append(workload.setup())
        items = workload.inputs(args.seed)
        min_units = profile["min_units"]
        if args.trace:
            pairs, info = run_units(workload, items, args.seconds, 1, Tracer())
            plain = [p for p, _ in pairs]
            traced = [t for _, t in pairs]
            results = plain + traced
            metrics = per_layer(plain, traced, info)
        else:
            pairs, _info = run_units(workload, items, args.seconds, min_units, None)
            results = [p for p, _ in pairs]
            metrics = end_to_end(workload, results, setups, min_units)
        failures = [f for result in results for f in result.failures]
        failures += workload.finish()
    finally:
        workload.close()
    steal_after, ticks_after = read_cpu_ticks()
    ticks = ticks_after - ticks_before
    attempted = sum(result.attempted for result in results)
    # One operation can fail several checks; count it once at most.
    failed = min(len(failures), attempted)
    return {
        "workload": args.workload,
        "trace": args.trace,
        "host": host_block(root, args.seed),
        "steal_ticks": steal_after - steal_before,
        "steal_share": (steal_after - steal_before) / ticks if ticks else 0.0,
        "unit_seconds": [result.seconds for result in results],
        "setups": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "bypassed_layers": list(workload.bypasses),
        "roadmap_layers": ROADMAP_LAYERS,
        "metrics": metrics,
    }


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    The worker pool's shared memory starts it as a child process that
    otherwise outlives this one by a moment and, under an init that does
    not reap orphans, lingers as a zombie.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="small inputs, for the self-test"
    )
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    args = parse_args(argv)
    scratch_root = root / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        record = measure(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stop_resource_tracker()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        entry["name"]: entry["unit"]
        for entry in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(record["metrics"]):
        raise SystemExit(
            f"metrics {sorted(record['metrics'])} do not match BENCHMARK.json {sorted(units)}"
        )
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in record["metrics"].items()
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
