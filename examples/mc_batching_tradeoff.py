"""The forward engine's two knobs: chunk size and early-stop tolerance.

``estimate_spread`` generates cascades through the batched forward engine,
``ExecutionContext.mc_batch_size`` at a time, and can stop early once the
95% CI half-width falls below ``ExecutionContext.mc_tolerance``.  This
example sweeps both knobs on a generated weighted-cascade graph:

* the **chunk-size sweep** shows the dispatch-amortization curve — tiny
  chunks degenerate toward the per-cascade loop, large chunks go flat once
  NumPy dispatch is amortized (and would eventually fall out of cache;
  the estimator's adaptive shrinking guards the large-cascade end);
* the **tolerance sweep** shows the accuracy/work trade — looser CI
  targets finish after fewer cascades.

Run::

    python examples/mc_batching_tradeoff.py
"""

import time

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.montecarlo import estimate_spread
from repro.experiments.report import format_table
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext

GRAPH_N = 4_000
SAMPLES = 4_000
#: Mid-degree nodes: the representative small-cascade regime (CELF / oracle
#: singleton scoring) where batching has the most dispatch left to remove.
SEEDS = [1000, 2500, 3999]


def main() -> None:
    model = IndependentCascade()
    topology = generators.preferential_attachment(GRAPH_N, 3, seed=7, directed=False)
    graph = weighting.weighted_cascade(topology)

    rows = []
    for mc_batch_size in (1, 8, 32, 128, 256, 512, 1024):
        start = time.perf_counter()
        estimate = estimate_spread(
            graph, model, SEEDS, samples=SAMPLES, seed=1,
            context=ExecutionContext(mc_batch_size=mc_batch_size),
        )
        seconds = time.perf_counter() - start
        rows.append([
            mc_batch_size,
            round(SAMPLES / seconds, 1),
            round(estimate.mean, 2),
            round(1.96 * estimate.std_error, 3),
        ])
    print(format_table(
        ["mc_batch_size", "cascades/s", "estimate", "CI half-width"],
        rows,
        title=f"Chunk-size sweep ({SAMPLES} cascades, n = {GRAPH_N})",
    ))

    rows = []
    for tolerance in (None, 8.0, 4.0, 2.0, 1.0, 0.5):
        start = time.perf_counter()
        estimate = estimate_spread(
            graph, model, SEEDS, samples=SAMPLES, seed=1,
            context=ExecutionContext(mc_batch_size=256, mc_tolerance=tolerance),
        )
        seconds = time.perf_counter() - start
        rows.append([
            "none (run all)" if tolerance is None else tolerance,
            estimate.samples,
            round(seconds * 1e3, 1),
            round(estimate.mean, 2),
            round(1.96 * estimate.std_error, 3),
        ])
    print()
    print(format_table(
        ["mc_tolerance", "cascades used", "ms", "estimate", "CI half-width"],
        rows,
        title="Early-stop sweep (cap 4000 cascades, mc_batch_size = 256)",
    ))
    print("\nNote: the estimator never stops before its first chunk, so the")
    print("loosest tolerance still reports a CI from 256 cascades.")


if __name__ == "__main__":
    main()
