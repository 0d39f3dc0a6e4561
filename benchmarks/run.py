"""One runner for the gated engine benchmarks: measure, judge, record.

Usage::

    python benchmarks/run.py SUITE [--quick] [--gate] [--seed N]

``SUITE`` names a ``benchmarks/bench_<suite>.py`` module (:data:`SUITES`)
that exports ``QUICK`` and ``FULL`` profiles, ``measure(profile, seed)``
and two tuples of ``(path_glob, op, bound)`` rows: ``CHECKS``, always
enforced, and ``GATES``, enforced with ``--gate``.  Each glob is matched
with :func:`fnmatch.fnmatchcase` against the ``/``-joined leaf paths of
the flattened ``measure()`` result (``cases/IC/mrr/speedup``):

* a row matching no path fails, so a renamed metric cannot pass silently;
* ``None`` values are not judged, and a row whose every match is ``None``
  is ``skipped`` (a compiled bar on a host without numba);
* a ``str`` bound names a profile field, for a bound that differs between
  the quick and full profiles.

Every run appends one record to ``BENCH_trajectory.json``, a JSON list
rewritten atomically: ``{suite, profile, seed, timestamp, git_sha,
host: {cpus, numba, numpy, python}, metrics: {path: value},
verdicts: {row: "pass"|"fail"|"skipped"}}``.  The exit status is non-zero
when the suite measured nothing, when a ``CHECKS`` row fails, or, under
``--gate``, when a ``GATES`` row fails.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib
import json
import operator
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.kernels import numba_available

BENCH_DIR = Path(__file__).resolve().parent
TRAJECTORY_PATH = BENCH_DIR.parent / "BENCH_trajectory.json"

SUITES = (
    "sampler_batching",
    "forward_batching",
    "adaptive_engine",
    "parallel_runtime",
    "kernel_backends",
    "fault_recovery",
    "service_load",
    "pool_store",
)

OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt, "==": operator.eq}


def flatten(tree: dict, prefix: str = "") -> dict:
    """Every non-dict leaf of ``tree``, keyed by its ``/``-joined path."""
    flat = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, path + "/"))
        else:
            flat[path] = value
    return flat


def judge(row: tuple, metrics: dict, profile: dict) -> tuple:
    """``(label, verdict, failing_paths)`` of one row over ``metrics``."""
    glob, op, bound = row
    if isinstance(bound, str):
        bound = profile[bound]
    label = f"{glob} {op} {bound}"
    matched = {
        path: value
        for path, value in metrics.items()
        if fnmatch.fnmatchcase(path, glob)
    }
    if not matched:
        return label, "fail", ["(no metric matches)"]
    failing = [
        f"{path}={value}"
        for path, value in matched.items()
        if value is not None and not OPS[op](value, bound)
    ]
    if failing:
        return label, "fail", failing
    if all(value is None for value in matched.values()):
        return label, "skipped", []
    return label, "pass", []


def host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "numba": numba_available(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def git_sha():
    """The checkout's HEAD commit, or ``None`` without git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def append_record(record: dict, path: Path = TRAJECTORY_PATH) -> None:
    """Append ``record`` to the JSON list at ``path`` (temp file + rename)."""
    history = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    history.append(record)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(history, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run(
    suite: str,
    module,
    quick: bool = False,
    gate: bool = False,
    seed: int = 0,
    path: Path = TRAJECTORY_PATH,
) -> int:
    """Measure ``module``'s suite, print and record it; return the exit code."""
    profile = module.QUICK if quick else module.FULL
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    metrics = flatten(module.measure(profile, seed=seed))
    if not metrics:
        print(f"{suite}: measure() produced no metrics", file=sys.stderr)
        return 1
    for metric, value in metrics.items():
        print(f"{metric} = {value}")

    failed = False
    verdicts = {}
    for kind, rows, enforced in (
        ("check", module.CHECKS, True),
        ("gate", module.GATES, gate),
    ):
        for row in rows:
            label, verdict, failing = judge(row, metrics, profile)
            verdicts[label] = verdict
            failed |= enforced and verdict == "fail"
            detail = f"   [{', '.join(failing)}]" if failing else ""
            print(f"{kind:<5} {verdict:<7} {label}{detail}")

    append_record(
        {
            "suite": suite,
            "profile": "quick" if quick else "full",
            "seed": seed,
            "timestamp": timestamp,
            "git_sha": git_sha(),
            "host": host(),
            "metrics": metrics,
            "verdicts": verdicts,
        },
        path,
    )
    print(f"appended to {path}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--quick", action="store_true", help="CI-scale profile")
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when a GATES row fails (CHECKS rows always are)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    module = importlib.import_module(f"bench_{args.suite}")
    return run(args.suite, module, args.quick, args.gate, args.seed)


if __name__ == "__main__":
    sys.exit(main())
