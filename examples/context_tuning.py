"""Sweep every engine knob through one ExecutionContext.

Before the unified context, tuning the batched engines meant threading
separate knob paths — ``sample_batch_size`` into the reverse sampler,
``jobs`` into the parallel runtime, ``reuse_pool`` into the adaptive
carry-over, and now ``kernel_backend`` into the labeled-BFS hot loops —
through every constructor between you and the engine.  Now each trial is
one :class:`repro.ExecutionContext`::

    context = ExecutionContext(sample_batch_size=512, jobs=2,
                               kernel_backend="auto")
    ASTI(model, context=context).run(graph, eta, seed=0)

This example runs a small grid over all four knobs on one graph and
prints seconds per run, demonstrating that (a) every configuration goes
through the single ``context=`` argument and (b) the chosen seed sets
agree across ``jobs`` values (worker-count invariance), across
``reuse_pool`` (which only changes *how much* sampling is paid, not the
policy's information), and across ``kernel_backend`` (the backends are
bit-identical by construction).

The kernel grid includes ``"numba"`` only where the optional extra is
installed; the interpreted ``"python"`` backend is deliberately excluded
(it exists for equivalence tests, not for 1500-node runs).

Run:
    PYTHONPATH=src python examples/context_tuning.py
"""

from __future__ import annotations

import time

from repro import ASTI, ExecutionContext, IndependentCascade
from repro.graph import generators, weighting
from repro.kernels import numba_available

GRAPH_N = 1500
ETA_FRACTION = 0.1
SEED = 7

SAMPLE_BATCH_SIZES = (64, 256, 1024)
JOBS = (None, 1, 2)          # None = historical single-stream route
REUSE_POOL = (True, False)
KERNEL_BACKENDS = ("auto", "numpy") + (("numba",) if numba_available() else ())


def build_graph():
    topology = generators.preferential_attachment(
        GRAPH_N, 3, seed=1, directed=False
    )
    return weighting.weighted_cascade(topology)


def run_trial(graph, eta, context):
    model = IndependentCascade()
    start = time.perf_counter()
    result = ASTI(
        model, epsilon=0.5, max_samples=20_000, context=context
    ).run(graph, eta, seed=SEED)
    seconds = time.perf_counter() - start
    return result, seconds


def main() -> int:
    graph = build_graph()
    eta = max(1, int(ETA_FRACTION * graph.n))
    print(
        f"graph: n={graph.n} m={graph.m} "
        f"(storage {graph.index_dtype}/{graph.prob_dtype}, "
        f"{graph.csr_nbytes} CSR bytes) | eta={eta} | "
        f"kernel grid {KERNEL_BACKENDS}"
    )
    print(
        f"{'batch':>6} {'jobs':>5} {'reuse':>6} {'kernel':>7} "
        f"{'seeds':>6} {'samples':>9} {'seconds':>8}"
    )

    worker_baseline = {}
    backend_baseline = {}
    for sample_batch_size in SAMPLE_BATCH_SIZES:
        for jobs in JOBS:
            for reuse_pool in REUSE_POOL:
                for kernel_backend in KERNEL_BACKENDS:
                    with ExecutionContext(
                        sample_batch_size=sample_batch_size,
                        jobs=jobs,
                        reuse_pool=reuse_pool,
                        kernel_backend=kernel_backend,
                    ) as context:
                        result, seconds = run_trial(graph, eta, context)
                    print(
                        f"{sample_batch_size:>6} {str(jobs):>5} "
                        f"{str(reuse_pool):>6} {kernel_backend:>7} "
                        f"{result.seed_count:>6} {result.total_samples:>9} "
                        f"{seconds:>8.2f}"
                    )
                    # Backend invariance: for a fixed (batch, jobs, reuse)
                    # cell, every kernel backend must select the exact
                    # same seeds — the backends are bit-identical.
                    cell = (sample_batch_size, jobs, reuse_pool)
                    backend_baseline.setdefault(cell, result.seeds)
                    assert result.seeds == backend_baseline[cell], (
                        f"kernel-backend invariance violated at {cell}"
                    )
                    # Worker-count invariance: for a fixed batch size,
                    # reuse policy, and backend, every explicit jobs value
                    # must select the exact same seeds (jobs=None uses a
                    # different — also deterministic — historical stream).
                    if jobs is not None:
                        key = (sample_batch_size, reuse_pool, kernel_backend)
                        worker_baseline.setdefault(key, result.seeds)
                        assert result.seeds == worker_baseline[key], (
                            f"worker-count invariance violated at {key}"
                        )
    print(
        "\nall configurations selected identical seed sets across backends"
        " and explicit jobs values"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
