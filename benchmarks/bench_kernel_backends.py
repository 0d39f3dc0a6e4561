"""Kernel-backend throughput: compiled vs numpy labeled-BFS hot loops.

Measures every kernel driver the dispatch layer has — IC forward coin
flips, LT forward threshold walks, IC/LT reverse sampling, and the
deterministic replay sweep behind adaptive observation — on a ~10k-node
generated graph, once per measured backend:

* **numpy** — the vectorized per-level closures (the reference path);
* **numba** — the njit-compiled per-level kernels, measured only when the
  optional ``[numba]`` extra is importable; without it the compiled bars
  are *skipped, not failed*, and this script still runs the equivalence
  leg and records a trajectory entry.

The foregrounded case is the hub-seeded LT forward walk on a high-skew
heavy-tailed graph — the engine benchmark's historical ~0.85x weak spot —
which the compiled backend is expected to beat numpy on by **>= 2x** (the
CI gate on numba-enabled runners).

Backends are interchangeable bit for bit; the equivalence leg re-checks
that on every run on a small graph through the interpreted ``python``
backend (the compiled kernels' source), so the kernel code path is
exercised even on machines without numba (``CHECKS``).

Every run appends one record to ``BENCH_trajectory.json``.  Run::

    python benchmarks/run.py kernel_backends                  # full profile
    python benchmarks/run.py kernel_backends --quick --gate   # CI profile
"""

from __future__ import annotations

import time

import numpy as np

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.realization import batch_reachable_from
from repro.graph import generators, weighting
from repro.kernels import KERNEL_TELEMETRY, numba_available

FULL = {"graph_n": 10_000, "skew_attachment": 8, "forward_sims": 600,
        "stress_sims": 400, "reverse_batch": 3_000, "replay_worlds": 24,
        "equiv_n": 300}
QUICK = {"graph_n": 10_000, "skew_attachment": 8, "forward_sims": 200,
         "stress_sims": 150, "reverse_batch": 1_000, "replay_worlds": 12,
         "equiv_n": 300}


def build_graphs(profile: dict, seed: int = 0):
    """The benchmark pair: the standard ~10k PA+WC graph and its high-skew
    sibling (heavier preferential attachment, hub-dominated levels)."""
    base = weighting.weighted_cascade(
        generators.preferential_attachment(
            profile["graph_n"], 3, seed=seed, directed=False
        )
    )
    skewed = weighting.weighted_cascade(
        generators.preferential_attachment(
            profile["graph_n"], profile["skew_attachment"], seed=seed + 1,
            directed=False,
        )
    )
    return base, skewed


def _measured_backends():
    return ("numpy", "numba") if numba_available() else ("numpy",)


def _time_per_backend(run) -> dict:
    """Run ``run(kernel_name)`` once warm-up + once timed per backend.

    The warm-up call absorbs numba's JIT compilation (reported separately
    via the dispatch stats) so the bars compare steady-state throughput.
    """
    case = {}
    for backend in _measured_backends():
        run(backend)  # warm-up: JIT compile + page in the CSR arrays
        start = time.perf_counter()
        run(backend)
        case[f"{backend}_seconds"] = round(time.perf_counter() - start, 4)
    if "numba_seconds" in case:
        case["speedup"] = round(
            case["numpy_seconds"] / max(case["numba_seconds"], 1e-9), 2
        )
    else:
        case["speedup"] = None  # no numba here: skipped, not failed
    return case


def measure(profile: dict, seed: int = 0) -> dict:
    """Compiled-vs-numpy bars for every kernel driver, plus JIT totals.

    The ``equivalent`` flag is :func:`check_equivalence` on this profile.
    """
    equivalent = check_equivalence(profile, seed=seed)
    base, skewed = build_graphs(profile, seed=seed)
    rng = np.random.default_rng(seed)
    median_node = int(np.argsort(-base.out_degrees())[base.n // 2])
    skew_hub = int(skewed.out_degrees().argmax())
    ic, lt = IndependentCascade(), LinearThreshold()

    roots = rng.integers(0, base.n, profile["reverse_batch"], dtype=np.int64)
    roots_indptr = np.arange(profile["reverse_batch"] + 1, dtype=np.int64)
    replay_realizations = [
        ic.sample_realization(base, np.random.default_rng(seed + i))
        for i in range(profile["replay_worlds"])
    ]
    replay_seeds = [[int(v)] for v in
                    rng.integers(0, base.n, profile["replay_worlds"])]

    before = KERNEL_TELEMETRY.snapshot()
    cases = {
        "ic_forward/singleton": _time_per_backend(
            lambda k: ic.simulate_batch(
                base, [median_node], profile["forward_sims"], seed=seed, kernel=k
            )
        ),
        "lt_forward/singleton": _time_per_backend(
            lambda k: lt.simulate_batch(
                base, [median_node], profile["forward_sims"], seed=seed, kernel=k
            )
        ),
        # The headline stress case: hub-seeded LT on the high-skew graph.
        "lt_forward/hub-skew": _time_per_backend(
            lambda k: lt.simulate_batch(
                skewed, [skew_hub], profile["stress_sims"], seed=seed, kernel=k
            )
        ),
        "ic_reverse/batch": _time_per_backend(
            lambda k: ic.reverse_sample_batch(
                base, roots, roots_indptr, np.random.default_rng(seed), kernel=k
            )
        ),
        "lt_reverse/batch": _time_per_backend(
            lambda k: lt.reverse_sample_batch(
                base, roots, roots_indptr, np.random.default_rng(seed), kernel=k
            )
        ),
        "replay_ic/batch": _time_per_backend(
            lambda k: batch_reachable_from(
                replay_realizations, replay_seeds, kernel=k
            )
        ),
    }
    stats = KERNEL_TELEMETRY.since(before)
    return {
        "equivalent": equivalent,
        "graph_n": base.n,
        "graph_m": base.m,
        "skew_graph_m": skewed.m,
        "numba_available": numba_available(),
        "jit_seconds": round(stats.get("jit_seconds", 0.0), 3),
        "kernel_calls": {
            key[len("calls."):]: count
            for key, count in stats.items()
            if key.startswith("calls.")
        },
        "cases": cases,
    }


def check_equivalence(profile: dict, seed: int = 0) -> bool:
    """Bit-identity of the kernel path on a small graph, via ``python``.

    Covers all six drivers; true when every one matches.  Runs on every
    machine — this is the benchmark's correctness leg, independent of
    whether numba is installed.
    """
    graph = weighting.weighted_cascade(
        generators.preferential_attachment(
            profile["equiv_n"], 3, seed=seed, directed=False
        )
    )
    rng = np.random.default_rng(seed)
    roots = rng.integers(0, graph.n, 80, dtype=np.int64)
    roots_indptr = np.arange(81, dtype=np.int64)
    identical = []
    for model in (IndependentCascade(), LinearThreshold()):
        fwd = {
            k: model.simulate_batch(graph, [0, 3], 40, seed=5, kernel=k)
            for k in ("numpy", "python")
        }
        identical += [np.array_equal(fwd["numpy"][i], fwd["python"][i]) for i in (0, 1)]
        rev = {
            k: model.reverse_sample_batch(
                graph, roots, roots_indptr, np.random.default_rng(7), kernel=k
            )
            for k in ("numpy", "python")
        }
        identical += [np.array_equal(rev["numpy"][i], rev["python"][i]) for i in (0, 1)]
        worlds = [
            model.sample_realization(graph, np.random.default_rng(seed + i))
            for i in range(5)
        ]
        seeds_per = [[i] for i in range(5)]
        replay = {
            k: batch_reachable_from(worlds, seeds_per, kernel=k)
            for k in ("numpy", "python")
        }
        identical.append(np.array_equal(replay["numpy"], replay["python"]))
    return bool(all(identical))


#: Rows over the flattened ``measure()`` paths (see ``benchmarks/run.py``).
CHECKS = (("equivalent", "==", True),)

#: ``speedup`` is ``None`` without numba, so both gates are skipped, not
#: failed, on numba-free machines.
GATES = (
    # The headline acceptance bar: the compiled hub-seeded LT walk on the
    # high-skew graph must beat the numpy batched path by at least this
    # much on numba-enabled runners.
    ("cases/lt_forward/hub-skew/speedup", ">=", 2.0),
    # Every other compiled bar only gates against collapse — the compiled
    # kernels must never make a driver materially slower than the closures
    # (warm, steady-state; shared-runner noise headroom included).
    ("cases/*/speedup", ">=", 0.5),
)
