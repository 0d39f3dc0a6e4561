"""One driver per paper artifact (Tables 2-3, Figures 3-10).

Each function regenerates the data behind an artifact and returns it in a
structured form; the corresponding module under ``benchmarks/`` times it,
prints it via :mod:`repro.experiments.report`, and asserts the qualitative
shape the paper reports.  Every driver takes size knobs so tests can run it
in seconds while a patient user can push toward paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

from repro.core.asti import ASTI
from repro.baselines.ateuc import ATEUC
from repro.experiments import datasets
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    SweepResult,
    run_sweep,
    sample_shared_realizations,
)
from repro.experiments.metrics import Table3Cell, table3_cell
from repro.graph import analysis
from repro.utils.validation import check_positive_int

# ----------------------------------------------------------------------
# Table 2 / Figure 3: dataset statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """A dataset summary next to the paper's published numbers."""

    dataset: str
    paper_name: str
    n: int
    m: int
    average_degree: float
    lwcc_size: int
    paper_n: int
    paper_m: int


def table2(
    names: Sequence[str] = None,
    n_override: Optional[dict[str, int]] = None,
    seed: int = 0,
) -> list[Table2Row]:
    """Regenerate Table 2 for the synthetic stand-in datasets."""
    names = list(names) if names is not None else datasets.dataset_names()
    rows: list[Table2Row] = []
    for name in names:
        spec = datasets.get_spec(name)
        n = (n_override or {}).get(name)
        graph = spec.build(n=n, seed=seed)
        summary = analysis.summarize_graph(graph, name=name)
        rows.append(
            Table2Row(
                dataset=name,
                paper_name=spec.paper_name,
                n=summary.n,
                m=summary.m,
                average_degree=summary.average_degree,
                lwcc_size=summary.lwcc_size,
                paper_n=spec.paper_n,
                paper_m=spec.paper_m,
            )
        )
    return rows


def figure3(
    names: Sequence[str] = None,
    n_override: Optional[dict[str, int]] = None,
    seed: int = 0,
) -> dict[str, dict[int, float]]:
    """Degree distributions (fraction of nodes per degree) per dataset."""
    names = list(names) if names is not None else datasets.dataset_names()
    distributions: dict[str, dict[int, float]] = {}
    for name in names:
        n = (n_override or {}).get(name)
        graph = datasets.load_dataset(name, n=n, seed=seed)
        distributions[name] = analysis.degree_distribution(graph, direction="total")
    return distributions


# ----------------------------------------------------------------------
# Figures 4-7 and 9: the threshold sweeps
# ----------------------------------------------------------------------

def threshold_sweep(
    dataset: str = "nethept-sim",
    model_name: str = "IC",
    graph_n: Optional[int] = None,
    realizations: int = 20,
    algorithms: Sequence[str] = ("ASTI", "ASTI-2", "ASTI-4", "ASTI-8", "AdaptIM", "ATEUC"),
    eta_fractions: Optional[Sequence[float]] = None,
    max_samples: Optional[int] = None,
    seed: int = 0,
) -> SweepResult:
    """The sweep feeding Figures 4/5 (IC) and 6/7 (LT) and Figure 9.

    A single run produces seeds, times, and spreads per (eta, algorithm), so
    the three figure families share it.
    """
    config = ExperimentConfig(
        dataset=dataset,
        model_name=model_name,
        eta_fractions=tuple(
            eta_fractions
            if eta_fractions is not None
            else datasets.eta_fractions_for(dataset)
        ),
        algorithms=tuple(algorithms),
        realizations=realizations,
        graph_n=graph_n,
        max_samples=max_samples,
        seed=seed,
        label=f"sweep:{dataset}:{model_name}",
    )
    return run_sweep(config)


def figure4(**kwargs) -> SweepResult:
    """Seeds vs threshold under IC."""
    kwargs.setdefault("model_name", "IC")
    return threshold_sweep(**kwargs)


def figure6(**kwargs) -> SweepResult:
    """Seeds vs threshold under LT."""
    kwargs.setdefault("model_name", "LT")
    return threshold_sweep(**kwargs)


# Figures 5/7 (times) and 9 (spread) read the same SweepResult through
# ``SweepResult.series(algorithm, "seconds" | "spread")``; no separate run.
figure5 = figure4
figure7 = figure6
figure9 = figure4


# ----------------------------------------------------------------------
# Table 3: improvement ratio of ASTI over ATEUC
# ----------------------------------------------------------------------

def table3(
    sweep: SweepResult,
    baseline: str = "ATEUC",
    improved: str = "ASTI",
) -> list[Table3Cell]:
    """Improvement-ratio cells (with N/A feasibility marks) from a sweep."""
    cells: list[Table3Cell] = []
    for fraction, eta in zip(sweep.config.eta_fractions, sweep.eta_values):
        outcomes = sweep.outcomes[eta]
        cells.append(table3_cell(fraction, outcomes[baseline], outcomes[improved]))
    return cells


# ----------------------------------------------------------------------
# Figure 8: per-realization spread distribution, ASTI vs ATEUC
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure8Result:
    """Per-realization spreads on one dataset/model at one threshold."""

    dataset: str
    model_name: str
    eta: int
    asti_spreads: tuple[int, ...]
    ateuc_spreads: tuple[int, ...]

    @property
    def ateuc_failures(self) -> int:
        """Realizations on which ATEUC's fixed seed set misses eta."""
        return sum(1 for s in self.ateuc_spreads if s < self.eta)

    @property
    def asti_failures(self) -> int:
        """Always 0 by construction; reported for the comparison table."""
        return sum(1 for s in self.asti_spreads if s < self.eta)


def figure8(
    dataset: str = "nethept-sim",
    model_name: str = "IC",
    graph_n: Optional[int] = None,
    realizations: int = 20,
    eta_fraction: float = 0.01,
    max_samples: Optional[int] = None,
    seed: int = 0,
) -> Figure8Result:
    """Spread per realization for ASTI and ATEUC (paper uses NetHEPT)."""
    check_positive_int(realizations, "realizations")
    config = ExperimentConfig(
        dataset=dataset,
        model_name=model_name,
        eta_fractions=(eta_fraction,),
        algorithms=("ASTI", "ATEUC"),
        realizations=realizations,
        graph_n=graph_n,
        max_samples=max_samples,
        seed=seed,
    )
    sweep = run_sweep(config)
    eta = sweep.eta_values[0]
    outcomes = sweep.outcomes[eta]
    return Figure8Result(
        dataset=dataset,
        model_name=model_name,
        eta=eta,
        asti_spreads=tuple(r.spread for r in outcomes["ASTI"].runs),
        ateuc_spreads=tuple(r.spread for r in outcomes["ATEUC"].runs),
    )


# ----------------------------------------------------------------------
# Figure 10: marginal truncated spread by seed index
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure10Result:
    """Marginal spread of each successive ASTI seed, per realization."""

    dataset: str
    model_name: str
    eta: int
    per_realization: tuple[tuple[int, ...], ...]

    def mean_by_index(self) -> list[float]:
        """Average marginal spread at each seed index (ragged-aware)."""
        longest = max((len(seq) for seq in self.per_realization), default=0)
        means: list[float] = []
        for i in range(longest):
            values = [seq[i] for seq in self.per_realization if len(seq) > i]
            means.append(sum(values) / len(values))
        return means


def figure10(
    dataset: str = "nethept-sim",
    model_name: str = "IC",
    graph_n: Optional[int] = None,
    realizations: int = 20,
    eta_fraction: float = 0.2,
    max_samples: Optional[int] = None,
    seed: int = 0,
) -> Figure10Result:
    """Record ASTI's per-seed marginal spreads at the largest threshold."""
    graph = datasets.load_dataset(dataset, n=graph_n, seed=seed)
    config = ExperimentConfig(dataset=dataset, model_name=model_name)
    model = config.make_model()
    eta = max(1, int(round(eta_fraction * graph.n)))
    worlds = sample_shared_realizations(graph, model, realizations, seed=seed + 10)
    asti = ASTI(model, epsilon=0.5, max_samples=max_samples)
    series: list[tuple[int, ...]] = []
    for index, phi in enumerate(worlds):
        result = asti.run(graph, eta, realization=phi, seed=seed + 100 + index)
        series.append(tuple(result.marginal_spreads))
    return Figure10Result(
        dataset=dataset,
        model_name=model_name,
        eta=eta,
        per_realization=tuple(series),
    )
