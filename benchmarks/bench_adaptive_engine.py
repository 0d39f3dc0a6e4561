"""Adaptive-session engine: sequential from-scratch vs batched carry-over.

Reproduces the harness's measurement protocol (20 shared ground-truth
realizations per dataset, every algorithm scored on the same worlds) and
times the full adaptive ASTI/TRIM run both ways:

* **sequential** — one :meth:`ASTI.run` per realization with
  ``reuse_pool=False``: every round rebuilds its mRR pool from scratch,
  every cascade is revealed by its own reachability sweep (the pre-engine
  code path);
* **engine** — one :meth:`ASTI.run_batch` over all realizations with
  ``reuse_pool=True``: sessions advance round-synchronously, each round's
  cascades are revealed in one batched sweep, and each session's mRR pool
  is re-validated and carried into its next round.

Both paths consume identical per-session random streams.  Besides the
wall-clock speedup the measurement doubles as the carry-over equivalence
check: every engine run must reach ``eta``, and the mean seed count must
stay within a tight tolerance of the from-scratch mean (pool reuse is a
perf lever, not an accuracy trade).

Every run appends one record to ``BENCH_trajectory.json``, so the engine's
performance trajectory is tracked from change to change.  Run::

    python benchmarks/run.py adaptive_engine                  # full profile
    python benchmarks/run.py adaptive_engine --quick --gate   # CI profile

The acceptance bar (``GATES``): the engine must deliver **at least 2x**
the sequential end-to-end throughput on the 20-realization harness run.
"""

from __future__ import annotations

import time

from repro.core.asti import ASTI
from repro.diffusion.ic import IndependentCascade
from repro.experiments.harness import sample_shared_realizations
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.utils.rng import spawn_generators

#: ``eta_fraction = 0.5`` is the carry-friendly half of the paper's sweep
#: range: the root-count rule ``E[k] = n_i / eta_i`` stays in one regime
#: for many consecutive rounds, so most surviving sets re-validate.  The
#: small-eta end of the sweep shifts regimes nearly every round and
#: legitimately falls back to from-scratch pools — that end is covered by
#: the equivalence tests, not gated here.
#:
#: ``gated_batch_sizes`` holds the 2x-gated measurement (TRIM, whose
#: rounds are sampling-dominated); ``secondary_batch_sizes`` holds
#: TRIM-B, recorded for the trajectory but gated only against collapse:
#: its rounds are dominated by greedy max coverage over the pool, which
#: both paths pay identically, so carry-over's ~3.5x sample saving shows
#: up as a smaller end-to-end win (recorded ~1.7x).
FULL = {"graph_n": 1000, "eta_fraction": 0.5, "scale": 0.5,
        "realizations": 20, "epsilon": 0.5,
        "gated_batch_sizes": (1,), "secondary_batch_sizes": (4,)}
QUICK = {"graph_n": 600, "eta_fraction": 0.5, "scale": 0.5,
         "realizations": 20, "epsilon": 0.5,
         "gated_batch_sizes": (1,), "secondary_batch_sizes": (4,)}


def build_graph(n: int, seed: int = 0):
    """Preferential attachment + damped cascade weights (multi-round regime)."""
    topology = generators.preferential_attachment(n, 3, seed=seed, directed=False)
    return weighting.scaled_cascade(topology, 0.5)


def _measure_case(graph, model, eta, epsilon, realizations, batch_size, seed):
    streams = lambda: spawn_generators(seed + 1, len(realizations))  # noqa: E731

    sequential = ASTI(
        model, epsilon=epsilon, batch_size=batch_size,
        context=ExecutionContext(reuse_pool=False),
    )
    start = time.perf_counter()
    fresh = [
        sequential.run(graph, eta, realization=phi, seed=rng)
        for phi, rng in zip(realizations, streams())
    ]
    sequential_seconds = time.perf_counter() - start

    engine = ASTI(
        model, epsilon=epsilon, batch_size=batch_size,
        context=ExecutionContext(reuse_pool=True),
    )
    start = time.perf_counter()
    carried = engine.run_batch(graph, eta, realizations, seeds=streams())
    engine_seconds = time.perf_counter() - start

    fresh_mean = sum(r.seed_count for r in fresh) / len(fresh)
    carried_mean = sum(r.seed_count for r in carried) / len(carried)
    return {
        "sequential_seconds": round(sequential_seconds, 2),
        "engine_seconds": round(engine_seconds, 2),
        "speedup": round(sequential_seconds / engine_seconds, 2),
        "sequential_samples": sum(r.total_samples for r in fresh),
        "engine_samples": sum(r.total_samples for r in carried),
        "sequential_mean_seeds": round(fresh_mean, 2),
        "engine_mean_seeds": round(carried_mean, 2),
        "all_reached_eta": all(r.spread >= eta for r in carried),
        "seed_count_ratio": round(carried_mean / fresh_mean, 4),
    }


def measure(profile: dict, seed: int = 0) -> dict:
    """Both paths on the shared-realization harness protocol."""
    graph = build_graph(profile["graph_n"], seed=seed)
    model = IndependentCascade()
    eta = max(1, int(profile["eta_fraction"] * graph.n))
    realizations = sample_shared_realizations(
        graph, model, profile["realizations"], seed=seed + 10
    )
    def run_cases(batch_sizes):
        cases = {}
        for batch_size in batch_sizes:
            label = "TRIM" if batch_size == 1 else f"TRIM-B({batch_size})"
            cases[label] = _measure_case(
                graph, model, eta, profile["epsilon"], realizations,
                batch_size, seed,
            )
        return cases

    return {
        "graph_n": graph.n,
        "graph_m": graph.m,
        "eta": eta,
        "realizations": profile["realizations"],
        "epsilon": profile["epsilon"],
        "cases": run_cases(profile["gated_batch_sizes"]),
        "secondary_cases": run_cases(profile["secondary_batch_sizes"]),
    }


#: Rows over the flattened ``measure()`` paths (see ``benchmarks/run.py``).
CHECKS = ()

GATES = (
    # End-to-end gate for the sampling-dominated TRIM case.  Recorded
    # speedups are ~3.5x (quick) / ~5.6x (full); 2.0x is the acceptance
    # bar with enough slack that shared-runner noise cannot flake the job
    # while losing the carry-over win still fails.
    ("cases/*/speedup", ">=", 2.0),
    # TRIM-B's recorded win is ~1.7x (greedy max coverage dominates its
    # rounds and both paths pay it identically); gate only against losing
    # the win entirely, mirroring the other engines' stress-case gates.
    ("secondary_cases/*/speedup", ">=", 1.2),
    # Carry-over must not trade seeds for speed: every engine run reaches
    # eta, and the engine's mean seed count may exceed the from-scratch
    # mean by at most 3%.
    ("*/all_reached_eta", "==", True),
    ("*/seed_count_ratio", "<=", 1.03),
)
