"""Forward-engine throughput: per-cascade loop vs batched simulation.

Measures forward Monte-Carlo spread-estimation throughput (cascades per
second) on a ~10k-node generated graph for both execution paths:

* **loop** — the historical reference, one Python-level
  ``repro.testing.reference.simulate`` call per cascade;
* **batched** — ``estimate_spread`` on the vectorized
  ``DiffusionModel.simulate_batch`` engine, one multi-cascade labeled
  forward BFS per ``mc_batch_size`` chunk;

plus **CELF end-to-end**: influence maximization with the fresh-noise
per-cascade estimator (``repro.testing.reference.fresh_noise_celf``)
against the common-random-numbers evaluator
(``celf_influence_maximization``), whose singleton initialization runs as
a handful of batched labeled sweeps.

The gated ``cases`` cover the regime the forward engine exists for — the
small-cascade workloads (singleton and few-seed estimates) that dominate
CELF initialization, oracle-greedy rounds, and seed-count heuristics.
``stress_cases`` hold the hub-seeded large-cascade points where the scalar
loop is already frontier-vectorized (Amdahl) and batching is at best a
modest win (IC) or near parity (LT, whose adaptive chunk shrinking bounds
the loss); they are recorded for the trajectory and gated only against
collapse.

Every run appends one record to ``BENCH_trajectory.json``, so the engine's
performance trajectory is tracked from change to change.  Run::

    python benchmarks/run.py forward_batching                  # full profile
    python benchmarks/run.py forward_batching --quick --gate   # CI profile

The acceptance bars (``GATES``): **>= 5x** spread-estimation throughput on
the representative IC case and **>= 3x** CELF end-to-end.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.celf import celf_influence_maximization
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import estimate_spread
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.testing.reference import fresh_noise_celf, simulate

FULL = {"graph_n": 10_000, "samples": 4_000, "mc_batch_size": 256,
        "stress_samples": 1_000, "celf_k": 3, "celf_samples": 16}
QUICK = {"graph_n": 10_000, "samples": 1_500, "mc_batch_size": 256,
         "stress_samples": 500, "celf_k": 2, "celf_samples": 12}


def build_graph(n: int, seed: int = 0):
    """The ~10k-node benchmark graph: preferential attachment + WC weights."""
    topology = generators.preferential_attachment(n, 3, seed=seed, directed=False)
    return weighting.weighted_cascade(topology)


def _loop_estimate(graph, model, seeds, samples, seed):
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(samples):
        total += simulate(model, graph, seeds, rng).sum()
    return total / samples


def _measure_spread_case(graph, model, seeds, samples, mc_batch_size, seed):
    start = time.perf_counter()
    _loop_estimate(graph, model, seeds, samples, seed)
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    estimate_spread(
        graph, model, seeds, samples=samples, seed=seed,
        context=ExecutionContext(mc_batch_size=mc_batch_size),
    )
    batched_seconds = time.perf_counter() - start
    loop_rate = samples / loop_seconds
    batched_rate = samples / batched_seconds
    return {
        "loop_cascades_per_s": round(loop_rate, 1),
        "batched_cascades_per_s": round(batched_rate, 1),
        "speedup": round(batched_rate / loop_rate, 2),
    }


def _measure_celf_case(graph, model, k, samples, seed):
    start = time.perf_counter()
    loop_result = fresh_noise_celf(graph, model, samples=samples, seed=seed, k=k)
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    crn_result = celf_influence_maximization(
        graph, model, k=k, samples=samples, seed=seed
    )
    crn_seconds = time.perf_counter() - start
    return {
        "loop_seconds": round(loop_seconds, 2),
        "crn_seconds": round(crn_seconds, 2),
        "speedup": round(loop_seconds / crn_seconds, 2),
        "loop_seeds": loop_result.seeds,
        "crn_seeds": crn_result.seeds,
    }


def measure(profile: dict, seed: int = 0) -> dict:
    """Loop-vs-batched throughput for IC and LT, plus CELF end-to-end.

    ``cases`` holds the gated small-cascade measurements and the CELF run;
    ``stress_cases`` the hub-seeded large-cascade points, reported for the
    trajectory and gated only against collapse.
    """
    graph = build_graph(profile["graph_n"], seed=seed)
    degrees = graph.out_degrees()
    rng = np.random.default_rng(seed)
    median_node = int(np.argsort(-degrees)[graph.n // 2])
    small_set = sorted(int(v) for v in rng.choice(graph.n, size=5, replace=False))
    hub = int(degrees.argmax())
    samples = profile["samples"]
    mc_batch_size = profile["mc_batch_size"]

    cases = {}
    stress_cases = {}
    for model in (IndependentCascade(), LinearThreshold()):
        cases[f"{model.name}/singleton"] = _measure_spread_case(
            graph, model, [median_node], samples, mc_batch_size, seed
        )
        cases[f"{model.name}/small-set"] = _measure_spread_case(
            graph, model, small_set, samples, mc_batch_size, seed
        )
        stress_cases[f"{model.name}/hub"] = _measure_spread_case(
            graph, model, [hub], profile["stress_samples"], mc_batch_size, seed
        )
    # The LT weak spot (recorded ~0.85x): a hub seed on a *high-skew*
    # heavy-tailed graph, where the batch's widest levels are dominated by
    # the hub's huge in-neighborhoods and the scalar loop is already
    # frontier-vectorized.  Tracked separately so the trajectory shows
    # whether kernel work moves it; tests/test_forward_engine.py pins its
    # batch-vs-loop equivalence.
    skewed = weighting.weighted_cascade(
        generators.preferential_attachment(
            profile["graph_n"], 8, seed=seed + 1, directed=False
        )
    )
    skew_hub = int(skewed.out_degrees().argmax())
    stress_cases["LT/hub-skew"] = _measure_spread_case(
        skewed, LinearThreshold(), [skew_hub], profile["stress_samples"],
        mc_batch_size, seed,
    )
    cases["IC/celf"] = _measure_celf_case(
        graph, IndependentCascade(), profile["celf_k"],
        profile["celf_samples"], seed,
    )
    return {
        "graph_n": graph.n,
        "graph_m": graph.m,
        "samples": samples,
        "mc_batch_size": mc_batch_size,
        "celf": {"k": profile["celf_k"], "samples": profile["celf_samples"]},
        "cases": cases,
        "stress_cases": stress_cases,
    }


#: Rows over the flattened ``measure()`` paths (see ``benchmarks/run.py``).
CHECKS = ()

#: CI gate per gated case.  Recorded speedups: IC/singleton ~12-17x,
#: IC/small-set ~7-8x, LT/singleton ~2.5-3.3x, LT/small-set ~1.5-1.8x,
#: IC/celf ~6-8x.  The gates sit well below the recordings so shared-runner
#: timing noise cannot flake the job, while a real loss of the batching win
#: still fails.  LT's forward cascades were already cheap per level (one
#: threshold comparison, no per-edge coins), so its dispatch-amortization
#: headroom is structurally smaller than IC's.
#:
#: Stress points (hub seeds, cascades covering a sizable graph fraction):
#: the scalar loop is already frontier-vectorized there, so batching is
#: near parity (recorded IC ~1.7x, LT ~0.85x); their 0.4x gate only
#: catches a collapse of the adaptive chunk shrinking.
GATES = (
    ("cases/IC/singleton/speedup", ">=", 5.0),
    ("cases/IC/small-set/speedup", ">=", 4.0),
    ("cases/LT/singleton/speedup", ">=", 1.7),
    ("cases/LT/small-set/speedup", ">=", 1.1),
    ("cases/IC/celf/speedup", ">=", 3.0),
    ("stress_cases/*/speedup", ">=", 0.4),
)
