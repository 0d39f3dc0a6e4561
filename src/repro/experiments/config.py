"""Experiment configuration objects.

One :class:`ExperimentConfig` pins everything a sweep needs: the dataset,
the diffusion model, the threshold fractions, the algorithm roster, the
number of ground-truth realizations, and the accuracy/budget knobs.  Two
presets are provided:

* :func:`paper_config` — the paper's setting (20 realizations,
  ``epsilon = 0.5``, the dataset's published eta sweep);
* :func:`quick_config` — a shrunk profile for tests and CI-scale
  benchmarks (fewer realizations, smaller graphs, sample caps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Sequence
from typing import Optional

from repro.diffusion.base import DiffusionModel
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.errors import ConfigurationError
from repro.experiments import datasets
from repro.kernels import KERNEL_BACKENDS
from repro.runtime.context import DEFAULT_BATCH_SIZE, ExecutionContext
from repro.utils.validation import (
    check_fraction,
    check_optional_positive_int,
    check_positive_float,
    check_positive_int,
)

#: The paper's full roster (Section 6.1).
PAPER_ALGORITHMS: tuple[str, ...] = (
    "ASTI", "ASTI-2", "ASTI-4", "ASTI-8", "AdaptIM", "ATEUC"
)

#: Roster labels understood by the harness: the paper roster plus the
#: historical CELF Monte-Carlo baseline (non-adaptive, CRN-evaluated).
KNOWN_ALGORITHMS = PAPER_ALGORITHMS + ("CELF",)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully pinned experiment: dataset x model x sweep x roster."""

    dataset: str
    model_name: str = "IC"                       # "IC" or "LT"
    eta_fractions: Sequence[float] = (0.05, 0.10)
    algorithms: Sequence[str] = ("ASTI", "ATEUC")
    realizations: int = 20
    epsilon: float = 0.5
    graph_n: Optional[int] = None                # None = dataset default
    max_samples: Optional[int] = None            # per-round mRR/RR cap
    sample_batch_size: int = DEFAULT_BATCH_SIZE  # engine sets per vectorized call
    mc_batch_size: Optional[int] = None          # forward cascades per engine call
                                                 # (None = engine default)
    mc_tolerance: Optional[float] = None         # MC early-stop CI half-width
    reuse_pool: bool = True                      # carry mRR pools across rounds
    jobs: int = 1                                # harness worker processes
                                                 # (1 = in-process; results are
                                                 # identical for any value)
    kernel_backend: str = "auto"                 # labeled-BFS backend
                                                 # ("auto"|"numpy"|"numba"|
                                                 # "python"); bit-identical
    chunk_timeout: Optional[float] = None        # seconds before a dispatched
                                                 # chunk is declared hung
    pool_store: Optional[str] = None             # persistent artifact store
                                                 # directory (None = no store)
    seed: int = 0
    label: str = field(default="")

    def __post_init__(self) -> None:
        datasets.get_spec(self.dataset)  # validates the name
        if self.model_name not in ("IC", "LT"):
            raise ConfigurationError(
                f"model_name must be 'IC' or 'LT', got {self.model_name!r}"
            )
        check_positive_int(self.realizations, "realizations")
        # The engine knobs share one validator set with the CLI and the
        # execution context, so every layer rejects a bad value with the
        # same message.
        check_positive_int(self.sample_batch_size, "sample_batch_size")
        check_positive_int(self.jobs, "jobs")
        check_optional_positive_int(self.mc_batch_size, "mc_batch_size")
        check_optional_positive_int(self.max_samples, "max_samples")
        check_positive_float(self.mc_tolerance, "mc_tolerance")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ConfigurationError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.pool_store is not None and not str(self.pool_store).strip():
            # Path("") means the current directory — an empty --pool-store
            # would silently scatter artifacts into the working tree.
            raise ConfigurationError(
                "pool_store must be a directory path, got an empty string"
            )
        self.fault_policy()  # validates the supervision knobs
        check_fraction(self.epsilon, "epsilon")
        for fraction in self.eta_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"eta fractions must be in (0, 1], got {fraction}"
                )
        unknown = set(self.algorithms) - set(KNOWN_ALGORITHMS)
        if unknown:
            raise ConfigurationError(
                f"unknown algorithms {sorted(unknown)}; known: {KNOWN_ALGORITHMS}"
            )

    def make_model(self) -> DiffusionModel:
        """Instantiate the configured diffusion model."""
        return IndependentCascade() if self.model_name == "IC" else LinearThreshold()

    def fault_policy(self):
        """The :class:`~repro.parallel.runtime.FaultPolicy` these knobs pin.

        Built (and thereby validated) from ``chunk_timeout``; the rebuild
        and segment budgets keep their policy defaults.
        """
        from repro.parallel.runtime import FaultPolicy

        return FaultPolicy(chunk_timeout=self.chunk_timeout)

    def make_pool_store(self):
        """The :class:`~repro.store.PoolStore` this config names (or None)."""
        if self.pool_store is None:
            return None
        from repro.store import PoolStore

        return PoolStore(self.pool_store)

    def to_context(self) -> ExecutionContext:
        """The execution context this config describes — the single source
        of truth for engine policy in a sweep.

        :func:`repro.experiments.harness.run_sweep` builds exactly one
        context per sweep from this method and owns its lifecycle (the
        parallel runtime spawns once for all eta points); every engine
        below receives it as the one ``context=`` argument.
        """
        return ExecutionContext(
            sample_batch_size=self.sample_batch_size,
            mc_batch_size=self.mc_batch_size,
            mc_tolerance=self.mc_tolerance,
            reuse_pool=self.reuse_pool,
            jobs=self.jobs,
            kernel_backend=self.kernel_backend,
            fault_policy=self.fault_policy(),
            pool_store=self.make_pool_store(),
        )

    def build_graph(self):
        """Materialize the configured dataset graph."""
        return datasets.load_dataset(self.dataset, n=self.graph_n, seed=self.seed)

    def eta_values(self, n: int) -> tuple[int, ...]:
        """Absolute thresholds for a graph of ``n`` nodes (min 1)."""
        return tuple(max(1, int(round(fraction * n))) for fraction in self.eta_fractions)

    def scaled(self, **changes) -> ExperimentConfig:
        """Return a copy with fields replaced (convenience wrapper)."""
        return replace(self, **changes)


def paper_config(dataset: str, model_name: str = "IC") -> ExperimentConfig:
    """The paper's Section 6.1 setting for ``dataset``."""
    return ExperimentConfig(
        dataset=dataset,
        model_name=model_name,
        eta_fractions=datasets.eta_fractions_for(dataset),
        algorithms=PAPER_ALGORITHMS,
        realizations=20,
        epsilon=0.5,
        label=f"paper:{dataset}:{model_name}",
    )


def quick_config(
    dataset: str = "nethept-sim",
    model_name: str = "IC",
    graph_n: int = 400,
    realizations: int = 3,
    algorithms: Sequence[str] = ("ASTI", "ASTI-4", "AdaptIM", "ATEUC"),
    eta_fractions: Sequence[float] = (0.05, 0.15),
    max_samples: Optional[int] = 20_000,
    seed: int = 0,
) -> ExperimentConfig:
    """A minutes-not-hours profile for tests and smoke benchmarks."""
    return ExperimentConfig(
        dataset=dataset,
        model_name=model_name,
        eta_fractions=tuple(eta_fractions),
        algorithms=tuple(algorithms),
        realizations=realizations,
        epsilon=0.5,
        graph_n=graph_n,
        max_samples=max_samples,
        seed=seed,
        label=f"quick:{dataset}:{model_name}",
    )
