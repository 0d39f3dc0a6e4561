"""The two batch-size trade-offs: seed batches and sampling batches.

Two distinct knobs share the word "batch":

* **Seed batch ``b`` (TRIM-B).**  Committing ``b`` seeds per round without
  observing between them speeds up selection (fewer rounds, fewer mRR
  pools) at the price of a slightly larger seed set and an adaptivity gap
  (paper Section 4; ASTI-8 runs at ~5% of ASTI's time while selecting only
  slightly more seeds).
* **Sampling batch ``sample_batch_size`` (the engine).**  How many (m)RR
  sets the vectorized :class:`~repro.sampling.engine.BatchSampler`
  generates per multi-source reverse BFS.  Purely a throughput knob — the
  selected seeds are statistically unchanged — trading NumPy dispatch
  amortization against the ``batch x n`` working set (see DESIGN.md).

This example sweeps both on a shared set of ground-truth worlds: first the
paper's seed-batch trade-off, then the engine knob at fixed ``b``.

Run::

    python examples/batch_size_tradeoff.py
"""

from repro import ASTI, ExecutionContext, IndependentCascade
from repro.experiments import datasets
from repro.experiments.harness import sample_shared_realizations
from repro.experiments.report import format_table
from repro.utils.stats import summarize


def run_roster(algorithms, graph, eta, worlds):
    rows = []
    for label, algorithm in algorithms:
        seeds, seconds, rounds = [], [], []
        for i, phi in enumerate(worlds):
            result = algorithm.run(graph, eta, realization=phi, seed=100 + i)
            assert result.spread >= eta
            seeds.append(result.seed_count)
            seconds.append(result.seconds)
            rounds.append(len(result.rounds))
        rows.append([
            label,
            round(summarize(seeds).mean, 1),
            round(summarize(rounds).mean, 1),
            round(summarize(seconds).mean, 2),
        ])
    return rows


def main() -> None:
    model = IndependentCascade()
    graph = datasets.load_dataset("nethept-sim", n=800, seed=0)
    eta = 120
    worlds = sample_shared_realizations(graph, model, 4, seed=5)

    print(f"graph: {graph.n} nodes / {graph.m} edges, eta = {eta}, "
          f"{len(worlds)} shared worlds\n")

    seed_batches = [
        (f"ASTI-{b}" if b > 1 else "ASTI",
         ASTI(model, epsilon=0.5, batch_size=b))
        for b in (1, 2, 4, 8)
    ]
    print(format_table(
        ["algorithm", "mean seeds", "mean rounds", "mean seconds"],
        run_roster(seed_batches, graph, eta, worlds),
        title="Seed-batch trade-off (larger b: faster, slightly more seeds)",
    ))
    print()

    sampling_batches = [
        (f"sample_batch={sbs}",
         ASTI(model, epsilon=0.5, batch_size=4,
              context=ExecutionContext(sample_batch_size=sbs)))
        for sbs in (1, 16, 256, 1024)
    ]
    print(format_table(
        ["engine knob", "mean seeds", "mean rounds", "mean seconds"],
        run_roster(sampling_batches, graph, eta, worlds),
        title="Sampling-batch trade-off (same seeds statistically; "
              "sample_batch=1 is the unbatched reference)",
    ))


if __name__ == "__main__":
    main()
