"""Persistent pool store: warm-run speedups with bit-identity bars.

Measures the content-addressed artifact store (:mod:`repro.store`) on the
three consumers it accelerates, each as a cold-vs-warm pair over the same
store directory:

* **pool** — (m)RR pool generation: a cold ``BatchSampler.fill`` populates
  the store; a fresh sampler with the identical recipe replays it from
  disk.  The warm pool (members, indptr, root counts) must be
  byte-for-byte the cold pool, and a post-fill probe draw must match —
  the restored generator state is part of the artifact;
* **crn** — common-random-number world generation:
  ``CRNSpreadEvaluator`` construction cold vs warm, with the full
  candidate x world spread matrix compared bit-for-bit.  Both legs are
  medians over ``crn_repeats`` cold/warm pairs on fresh directories: the
  warm leg is one ~10 MB read plus a SHA-256 over it (the hash is most of
  it), only ~15 ms, so a single timing lets scheduler noise flip the gate;
* **sweep** — an end-to-end ``run_sweep``: cold, warm, and store-less
  runs must select identical per-eta seed counts (the store may only
  change *when* sampling is paid, never *what* is sampled); the cold
  run's cost over the store-less one is reported as ``cold_over_plain``.

Each artifact is one file (``<key>.art``: a prefix with magic and SHA-256,
a JSON header, then raw array bytes at 64-byte-aligned offsets), so a
save is one staged write and one rename and a load one read, one hash
and zero-copy views; see ``repro.store.disk``.

The bars: every bit-identity flag true on every run (``CHECKS``), and,
with ``--gate``, the pool and CRN warm legs at least 5x over their cold
legs and the warm sweep no slower than the cold one (``GATES``).

Every run appends one record to ``BENCH_trajectory.json``.  Run::

    python benchmarks/run.py pool_store                  # full profile
    python benchmarks/run.py pool_store --quick --gate   # CI profile
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.experiments.config import quick_config
from repro.experiments.harness import run_sweep
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule
from repro.store import PoolStore

FULL = {
    "graph_n": 10_000,
    "pool_sets": 4_000,
    "batch_size": 256,
    "eta_fraction": 0.1,
    "crn_candidates": 64,
    "crn_worlds": 600,
    "crn_repeats": 5,
    "sweep_n": 600,
    "sweep_realizations": 4,
}
QUICK = {
    "graph_n": 4_000,
    "pool_sets": 2_000,
    "batch_size": 256,
    "eta_fraction": 0.1,
    "crn_candidates": 32,
    "crn_worlds": 400,
    "crn_repeats": 5,
    "sweep_n": 400,
    "sweep_realizations": 3,
}


def build_graph(n: int, seed: int = 0):
    topology = generators.preferential_attachment(n, 3, seed=seed, directed=False)
    return weighting.weighted_cascade(topology)


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_pool(graph, profile, store_dir, seed=0):
    """Cold fill vs warm (store-replayed) fill of one mRR pool."""
    model = IndependentCascade()
    eta = max(1, int(profile["eta_fraction"] * graph.n))
    rule = RootCountRule.for_target(graph.n, eta)

    def fill(store):
        context = ExecutionContext(
            sample_batch_size=profile["batch_size"], pool_store=store
        )
        engine = mrr_batch_sampler(graph, model, rule, seed=seed, context=context)
        index = CoverageIndex(graph.n)
        seconds = _time(lambda: engine.fill(index, profile["pool_sets"]))
        members, indptr = index.packed()
        # The restored generator state is part of the contract: the next
        # draw after a warm fill must equal the next draw after the cold
        # fill, or a later grow_to would diverge.
        probe = engine._rng.integers(0, 2**32, size=4)
        return seconds, (members.copy(), indptr.copy(), probe)

    cold_seconds, cold = fill(PoolStore(store_dir))
    warm_store = PoolStore(store_dir)
    warm_seconds, warm = fill(warm_store)
    identical = all(np.array_equal(c, w) for c, w in zip(cold, warm))
    return {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "bit_identical": bool(identical and warm_store.telemetry.snapshot()["hits"] >= 1),
    }


def measure_crn(graph, profile, store_dir, seed=0):
    """Cold vs warm CRN world generation, spread matrix compared.

    Each leg is the median of ``crn_repeats`` cold/warm pairs, each pair on
    a fresh store directory: the warm leg is one read plus a SHA-256 over
    the world payload, short enough that one timing swings the ratio.
    """
    model = IndependentCascade()
    candidates = [[int(v)] for v in range(profile["crn_candidates"])]

    def evaluate(store):
        context = ExecutionContext(pool_store=store)
        holder = {}
        seconds = _time(
            lambda: holder.setdefault(
                "evaluator",
                CRNSpreadEvaluator(
                    graph, model, n_sims=profile["crn_worlds"], seed=seed,
                    context=context,
                ),
            )
        )
        values = holder["evaluator"].evaluate_many(candidates)
        return seconds, np.asarray(values)

    cold_times, warm_times, identical = [], [], True
    for repeat in range(profile["crn_repeats"]):
        root = os.path.join(store_dir, str(repeat))
        cold_seconds, cold_values = evaluate(PoolStore(root))
        warm_store = PoolStore(root)
        warm_seconds, warm_values = evaluate(warm_store)
        cold_times.append(cold_seconds)
        warm_times.append(warm_seconds)
        identical &= bool(
            np.array_equal(cold_values, warm_values)
            and warm_store.telemetry.snapshot()["hits"] >= 1
        )
    cold_seconds, warm_seconds = np.median(cold_times), np.median(warm_times)
    return {
        "cold_seconds": round(float(cold_seconds), 4),
        "warm_seconds": round(float(warm_seconds), 4),
        "speedup": round(float(cold_seconds / warm_seconds), 2),
        "bit_identical": identical,
    }


def measure_sweep(profile, store_dir, seed=0):
    """End-to-end harness: store-less vs cold-store vs warm-store."""
    def run(pool_store):
        config = quick_config(
            graph_n=profile["sweep_n"],
            realizations=profile["sweep_realizations"],
            algorithms=("ASTI",),
            eta_fractions=(0.05, 0.15),
            seed=seed,
        ).scaled(pool_store=pool_store)
        holder = {}
        seconds = _time(lambda: holder.setdefault("sweep", run_sweep(config)))
        sweep = holder["sweep"]
        counts = [
            r.seed_count
            for eta in sweep.eta_values
            for r in sweep.outcomes[eta]["ASTI"].runs
        ]
        return seconds, counts

    plain_seconds, plain_counts = run(None)
    cold_seconds, cold_counts = run(store_dir)
    warm_seconds, warm_counts = run(store_dir)
    return {
        "plain_seconds": round(plain_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2),
        # The cold-store penalty: what populating the store costs a sweep
        # over running without one (reported, not gated).
        "cold_over_plain": round(cold_seconds / plain_seconds, 2),
        "bit_identical": bool(plain_counts == cold_counts == warm_counts),
        "seed_counts": plain_counts,
    }


def measure(profile: dict, seed: int = 0) -> dict:
    graph = build_graph(profile["graph_n"], seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-pool-store-") as tmp:
        cases = {
            "pool": measure_pool(graph, profile, os.path.join(tmp, "pool"), seed),
            "crn": measure_crn(graph, profile, os.path.join(tmp, "crn"), seed),
            "sweep": measure_sweep(profile, os.path.join(tmp, "sweep"), seed),
        }
    return {
        "graph_n": graph.n,
        "graph_m": graph.m,
        "pool_sets": profile["pool_sets"],
        "crn_jobs": profile["crn_candidates"] * profile["crn_worlds"],
        "cases": cases,
    }


#: Rows over the flattened ``measure()`` paths (see ``benchmarks/run.py``).
#: Every leg replays bit-identically, on every run.
CHECKS = (("cases/*/bit_identical", "==", True),)

GATES = (
    # A warm run is a digest-verified disk read where the cold run is a
    # full reverse-sampling (or forward-cascade) generation pass; 5x is a
    # loose floor for any graph big enough that the cold leg is measurable.
    ("cases/pool/speedup", ">=", 5.0),
    ("cases/crn/speedup", ">=", 5.0),
    # The sweep leg re-pays everything but the sampling, so its bar is
    # only "warm is not slower" — the bit-identity flags carry the rigor.
    ("cases/sweep/speedup", ">=", 1.0),
)
