"""Parallel-runtime throughput: in-process chunks vs multi-core workers.

Measures the three fan-outs of the shared-memory parallel runtime on the
~10k-node benchmark graph, each against the same chunk decomposition run
in-process (``jobs=1``), so the speedup isolates multi-core scaling from
vectorization (which earlier gates already cover):

* **pool** — (m)RR pool generation: ``BatchSampler.fill`` sharding its
  per-batch reverse-sample chunks across workers over the shared CSR graph;
* **crn** — common-random-number spread evaluation:
  ``CRNSpreadEvaluator`` sharding its flattened candidate x world sweeps;
* **harness** — the experiment harness running independent adaptive
  realizations across workers (recorded for the trajectory, not gated:
  its shards are few and coarse, so its scaling is lumpier than the
  chunk-level engines').

Determinism is part of the bar: every case also asserts the **worker-count
invariance** equivalence — ``jobs=N`` output must be bit-identical to
``jobs=1`` (and, for CRN, to the runtime-free path).

Every run appends one record (throughputs, speedups, equivalence flags,
worker count) to ``BENCH_trajectory.json``.  Run::

    python benchmarks/run.py parallel_runtime                  # full, 4 workers
    python benchmarks/run.py parallel_runtime --quick --gate   # CI, 2 workers

The equivalence and storage bars (``CHECKS``) are enforced on every run;
the speedup bar (``GATES``) with ``--gate``, at the profile's
``min_speedup``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.experiments.config import quick_config
from repro.experiments.harness import run_sweep
from repro.graph import generators, weighting
from repro.parallel import ParallelRuntime
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule

#: The pool case samples mRR sets at the representative eta/n = 0.1 point;
#: the CRN case scores singleton candidates on shared worlds with a fixed
#: sweep size so the chunk count (and thus the shardable work) is stable.
#: ``jobs`` is the worker count and ``min_speedup`` the gate on the pool
#: and CRN cases: full runs on a >= 4-core host should clear 2.5x at 4
#: workers; CI's 2-vCPU runner gates a relaxed 1.3x at 2 workers.
FULL = {
    "jobs": 4,
    "min_speedup": 2.5,
    "graph_n": 10_000,
    "pool_sets": 4_000,
    "batch_size": 256,
    "eta_fraction": 0.1,
    "crn_candidates": 96,
    "crn_worlds": 100,
    "crn_sweep": 256,
    "harness_n": 1_000,
    "harness_realizations": 8,
}
QUICK = {
    "jobs": 2,
    "min_speedup": 1.3,
    "graph_n": 10_000,
    "pool_sets": 3_000,
    "batch_size": 256,
    "eta_fraction": 0.1,
    "crn_candidates": 64,
    "crn_worlds": 60,
    "crn_sweep": 256,
    "harness_n": 600,
    "harness_realizations": 6,
}


def build_graph(n: int, seed: int = 0):
    """The ~10k-node benchmark graph: preferential attachment + WC weights."""
    topology = generators.preferential_attachment(n, 3, seed=seed, directed=False)
    return weighting.weighted_cascade(topology)


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _on(runtime, **knobs) -> ExecutionContext:
    """A context lent ``runtime`` (the caller keeps closing it)."""
    return ExecutionContext(**knobs).attach_runtime(runtime)


def _pool_once(graph, model, rule, profile, jobs, seed):
    with ParallelRuntime(jobs) as runtime:
        if jobs > 1:
            # Spawn the workers and map the graph outside the clock: the
            # runtime is persistent, so production runs pay this once per
            # process, not once per fill.
            warmup = mrr_batch_sampler(
                graph, model, rule, seed=seed,
                context=_on(runtime, sample_batch_size=profile["batch_size"]),
            )
            warmup.fill(CoverageIndex(graph.n), profile["batch_size"])
        engine = mrr_batch_sampler(
            graph,
            model,
            rule,
            seed=seed,
            context=_on(runtime, sample_batch_size=profile["batch_size"]),
        )
        index = CoverageIndex(graph.n)
        seconds = _time(lambda: engine.fill(index, profile["pool_sets"]))
        members, indptr = index.packed()
        return seconds, (members.copy(), indptr.copy())


def measure_pool(graph, model, profile, jobs, seed=0):
    eta = max(1, int(profile["eta_fraction"] * graph.n))
    rule = RootCountRule.for_target(graph.n, eta)
    base_seconds, base_pool = _pool_once(graph, model, rule, profile, 1, seed)
    par_seconds, par_pool = _pool_once(graph, model, rule, profile, jobs, seed)
    identical = np.array_equal(base_pool[0], par_pool[0]) and np.array_equal(
        base_pool[1], par_pool[1]
    )
    rate = profile["pool_sets"] / base_seconds
    par_rate = profile["pool_sets"] / par_seconds
    return {
        "jobs1_sets_per_s": round(rate, 1),
        "workers_sets_per_s": round(par_rate, 1),
        "speedup": round(par_rate / rate, 2),
        "bit_identical": bool(identical),
    }


def measure_relabeled(graph, profile, jobs, seed=0):
    """Stress the pool fan-out on a degree-relabeled copy of the graph.

    ``DiGraph.relabeled()`` packs the hubs into a compact id prefix; this
    case re-runs the gated pool measurement on that copy, so the
    worker-count-invariance bar (jobs=N bit-identical to jobs=1) is
    exercised under a node numbering whose chunk contents differ
    completely from the canonical graph's.  The relabeled graph must also
    be verifiably the same graph: same edge count, storage policy
    inherited, and ids actually sorted by descending total degree.
    """
    relabeled, order = graph.relabeled()
    degrees = relabeled.in_degrees() + relabeled.out_degrees()
    case = measure_pool(relabeled, IndependentCascade(), profile, jobs, seed)
    case["bit_identical"] = bool(
        case["bit_identical"]
        and relabeled.m == graph.m
        and relabeled.storage == graph.storage
        and np.array_equal(np.sort(order), np.arange(graph.n))
        and bool(np.all(degrees[:-1] >= degrees[1:]))
    )
    return case


def measure_crn(graph, model, profile, jobs, seed=0):
    candidates = [[int(v)] for v in range(profile["crn_candidates"])]
    kwargs = dict(n_sims=profile["crn_worlds"], seed=seed)
    sweep = profile["crn_sweep"]
    legacy = CRNSpreadEvaluator(
        graph, model, context=ExecutionContext(mc_batch_size=sweep), **kwargs
    )
    legacy_values = legacy.evaluate_many(candidates)

    def timed(workers):
        with ParallelRuntime(workers) as runtime:
            evaluator = CRNSpreadEvaluator(
                graph, model, context=_on(runtime, mc_batch_size=sweep), **kwargs
            )
            if workers > 1:
                # Warm with a full-size evaluation: anything smaller than
                # two sweeps stays in-process and would leave worker spawn
                # plus graph/worlds publication inside the timed run.
                evaluator.evaluate_many(candidates)
            holder = {}
            seconds = _time(
                lambda: holder.setdefault(
                    "values", evaluator.evaluate_many(candidates)
                )
            )
            return seconds, holder["values"]

    base_seconds, base_values = timed(1)
    par_seconds, par_values = timed(jobs)
    jobs_total = len(candidates) * profile["crn_worlds"]
    rate = jobs_total / base_seconds
    par_rate = jobs_total / par_seconds
    return {
        "jobs1_evals_per_s": round(rate, 1),
        "workers_evals_per_s": round(par_rate, 1),
        "speedup": round(par_rate / rate, 2),
        "bit_identical": bool(
            np.array_equal(legacy_values, base_values)
            and np.array_equal(base_values, par_values)
        ),
    }


def measure_harness(profile, jobs, seed=0):
    config = quick_config(
        graph_n=profile["harness_n"],
        realizations=profile["harness_realizations"],
        algorithms=("ASTI-4",),
        eta_fractions=(0.1,),
        max_samples=20_000,
        seed=seed,
    )

    def run(workers):
        holder = {}
        seconds = _time(
            lambda: holder.setdefault(
                "sweep", run_sweep(config.scaled(jobs=workers))
            )
        )
        sweep = holder["sweep"]
        counts = [
            r.seed_count
            for eta in sweep.eta_values
            for r in sweep.outcomes[eta]["ASTI-4"].runs
        ]
        return seconds, counts

    base_seconds, base_counts = run(1)
    par_seconds, par_counts = run(jobs)
    return {
        "jobs1_seconds": round(base_seconds, 2),
        "workers_seconds": round(par_seconds, 2),
        "speedup": round(base_seconds / par_seconds, 2),
        "bit_identical": bool(base_counts == par_counts),
    }


def measure_storage(profile, seed=0):
    """Shared-memory segment bytes: compact (adaptive) vs wide storage.

    Two graphs over the same ~10k-node topology:

    * ``weighted-cascade`` — the benchmark's WC weights (1/indeg is not
      float32-exact, so only the index arrays compact);
    * ``constant-p0.125`` — a fully compact-eligible graph (int32 indices
      *and* lossless float32 probabilities), which must pack into at most
      0.55 of its int64/float64 bytes (``CHECKS``).

    Both segments really go through ``share_graph`` (alignment included),
    so the recorded bytes are exactly what workers map.
    """
    from repro.graph import generators, weighting
    from repro.parallel.shm import share_graph

    topology = generators.preferential_attachment(
        profile["graph_n"], 3, seed=seed, directed=False
    )
    cases = {}
    for name, graph in (
        ("weighted-cascade", weighting.weighted_cascade(topology)),
        ("constant-p0.125", weighting.constant(topology, 0.125)),
    ):
        compact_bundle, _ = share_graph(graph)
        wide_bundle, _ = share_graph(graph.with_storage("wide"))
        try:
            cases[name] = {
                "index_dtype": str(graph.index_dtype),
                "prob_dtype": str(graph.prob_dtype),
                "compact_segment_bytes": compact_bundle.nbytes,
                "wide_segment_bytes": wide_bundle.nbytes,
                "ratio": round(compact_bundle.nbytes / wide_bundle.nbytes, 3),
            }
        finally:
            compact_bundle.close()
            wide_bundle.close()
    return cases


def measure(profile: dict, seed: int = 0) -> dict:
    jobs = profile["jobs"]
    graph = build_graph(profile["graph_n"], seed=seed)
    cases = {}
    for model in (IndependentCascade(), LinearThreshold()):
        cases[f"pool/{model.name}-mrr"] = measure_pool(
            graph, model, profile, jobs, seed
        )
    cases["pool/IC-relabeled"] = measure_relabeled(graph, profile, jobs, seed)
    cases["crn/IC"] = measure_crn(graph, IndependentCascade(), profile, jobs, seed)
    harness = measure_harness(profile, jobs, seed)
    storage = measure_storage(profile, seed)
    return {
        "graph_n": graph.n,
        "graph_m": graph.m,
        "jobs": jobs,
        "pool_sets": profile["pool_sets"],
        "crn_jobs": profile["crn_candidates"] * profile["crn_worlds"],
        "cases": cases,
        "harness": harness,
        "storage": storage,
    }


#: Rows over the flattened ``measure()`` paths (see ``benchmarks/run.py``),
#: enforced on every run: hardware-independent.
CHECKS = (
    # Worker-count invariance: every parallel path matches its jobs=1
    # reference bit for bit.
    ("cases/*/bit_identical", "==", True),
    ("harness/bit_identical", "==", True),
    # Compact storage actually compacts: a fully compact-eligible graph
    # (int32 indices, float32 probabilities) packs into at most 0.55 of its
    # int64/float64 segment bytes; the weighted-cascade graph (indices
    # only) still shrinks below its wide layout.
    ("storage/constant-p0.125/ratio", "<=", 0.55),
    ("storage/weighted-cascade/ratio", "<", 1.0),
)

#: The pool and CRN cases must clear the profile's ``min_speedup``.
GATES = (("cases/*/speedup", ">=", "min_speedup"),)
