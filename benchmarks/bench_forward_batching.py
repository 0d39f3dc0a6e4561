"""Forward-engine throughput: per-cascade loop vs batched simulation.

Measures forward Monte-Carlo spread-estimation throughput (cascades per
second) on a ~10k-node generated graph for both execution paths:

* **loop** — the historical reference, one Python-level
  ``model.simulate`` call per cascade;
* **batched** — ``estimate_spread`` on the vectorized
  ``DiffusionModel.simulate_batch`` engine, one multi-cascade labeled
  forward BFS per ``mc_batch_size`` chunk;

plus **CELF end-to-end**: influence maximization with the fresh-noise
per-cascade estimator (``crn=False``) against the common-random-numbers
evaluator (``crn=True``), whose singleton initialization runs as a handful
of batched labeled sweeps.

The gated ``cases`` cover the regime the forward engine exists for — the
small-cascade workloads (singleton and few-seed estimates) that dominate
CELF initialization, oracle-greedy rounds, and seed-count heuristics.
``stress_cases`` hold the hub-seeded large-cascade points where the scalar
loop is already frontier-vectorized (Amdahl) and batching is at best a
modest win (IC) or near parity (LT, whose adaptive chunk shrinking bounds
the loss); they are recorded for the trajectory and gated only against
collapse.

Results are appended to ``benchmarks/results/forward_batching.json`` so the
engine's performance trajectory is tracked from PR to PR.  Run::

    python benchmarks/bench_forward_batching.py            # full profile
    python benchmarks/bench_forward_batching.py --quick    # CI profile

or through pytest (``pytest benchmarks/bench_forward_batching.py -s``),
which uses the quick profile and asserts the acceptance bars: **>= 5x**
spread-estimation throughput on the representative IC case and **>= 3x**
CELF end-to-end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.baselines.celf import celf_influence_maximization
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import estimate_spread
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "forward_batching.json"

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
        total += model.simulate(graph, seeds, rng).sum()
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
    loop_result = celf_influence_maximization(
        graph, model, k=k, samples=samples, seed=seed, crn=False
    )
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    crn_result = celf_influence_maximization(
        graph, model, k=k, samples=samples, seed=seed, crn=True
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
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "graph_n": graph.n,
        "graph_m": graph.m,
        "samples": samples,
        "mc_batch_size": mc_batch_size,
        "celf": {"k": profile["celf_k"], "samples": profile["celf_samples"]},
        "cases": cases,
        "stress_cases": stress_cases,
    }


def record(result: dict) -> None:
    """Append one measurement to the JSON trajectory file."""
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    history = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    history.append(result)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def report(result: dict, out=sys.stdout) -> None:
    print(
        f"graph: n={result['graph_n']} m={result['graph_m']} | "
        f"{result['samples']} cascades | mc_batch_size={result['mc_batch_size']}",
        file=out,
    )
    for block in ("cases", "stress_cases"):
        print(f"  [{block}]", file=out)
        for name, case in result[block].items():
            if "loop_cascades_per_s" in case:
                print(
                    f"    {name:<13} loop {case['loop_cascades_per_s']:>9.1f}/s   "
                    f"batched {case['batched_cascades_per_s']:>9.1f}/s   "
                    f"speedup {case['speedup']:>6.2f}x",
                    file=out,
                )
            else:
                print(
                    f"    {name:<13} loop {case['loop_seconds']:>7.2f}s   "
                    f"crn {case['crn_seconds']:>7.2f}s   "
                    f"speedup {case['speedup']:>6.2f}x",
                    file=out,
                )


#: CI gate per gated case.  Recorded speedups: IC/singleton ~12-17x,
#: IC/small-set ~7-8x, LT/singleton ~2.5-3.3x, LT/small-set ~1.5-1.8x,
#: IC/celf ~6-8x.  The gates sit well below the recordings so shared-runner
#: timing noise cannot flake the job, while a real loss of the batching win
#: still fails.  LT's forward cascades were already cheap per level (one
#: threshold comparison, no per-edge coins), so its dispatch-amortization
#: headroom is structurally smaller than IC's.
GATES = {
    "IC/singleton": 5.0,
    "IC/small-set": 4.0,
    "LT/singleton": 1.7,
    "LT/small-set": 1.1,
    "IC/celf": 3.0,
}

#: Stress points (hub seeds, cascades covering a sizable graph fraction):
#: the scalar loop is already frontier-vectorized there, so batching is
#: near parity (recorded IC ~1.7x, LT ~0.85x); the gate only catches a
#: collapse of the adaptive chunk shrinking.
STRESS_GATE = 0.4


def test_forward_speedup():
    """Enforce the per-case throughput gates in ``GATES``."""
    # No record() here: pytest runs must not dirty the tracked trajectory
    # file — only explicit `python bench_forward_batching.py` runs append.
    result = measure(QUICK)
    report(result)
    for name, gate in GATES.items():
        assert result["cases"][name]["speedup"] >= gate, (name, result["cases"][name])
    for name, case in result["stress_cases"].items():
        assert case["speedup"] >= STRESS_GATE, (name, case)


def check_gates(result: dict) -> None:
    """Raise if any case falls below its gate (see GATES/STRESS_GATE)."""
    for name, gate in GATES.items():
        if result["cases"][name]["speedup"] < gate:
            raise SystemExit(f"gate failed: {name} {result['cases'][name]}")
    for name, case in result["stress_cases"].items():
        if case["speedup"] < STRESS_GATE:
            raise SystemExit(f"stress gate failed: {name} {case}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-scale profile")
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero unless the speedup gates hold (CI uses this "
        "so one measurement both gates and records)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = measure(QUICK if args.quick else FULL, seed=args.seed)
    report(result)
    record(result)
    print(f"appended to {RESULTS_PATH}")
    if args.gate:
        check_gates(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
