"""Seed-selection policy abstractions.

The ASTI framework (paper Algorithm 1) is a loop that repeatedly asks a
*selector* for the next seed batch on the current residual graph.  TRIM,
TRIM-B, and the baselines' per-round strategies all implement the same
:class:`SeedSelector` interface, so the adaptive driver in
:mod:`repro.core.asti` is shared across every algorithm in the evaluation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.graph.residual import ResidualGraph
from repro.sampling.mrr import CarriedMRRPool, CarryDiagnostics


@dataclass(frozen=True)
class SelectionDiagnostics:
    """Per-round accounting reported by a selector."""

    samples_generated: int = 0     # (m)RR sets created this round
    iterations: int = 0            # doubling iterations used
    certified_ratio: float = 0.0   # Lambda_l / Lambda_u at the stop, if any
    estimated_gain: float = 0.0    # selector's own estimate of the batch gain
    samples_carried: int = 0       # mRR sets reused from the previous round
    #: Full carry-over accounting (drop reasons, fallback), when the
    #: selector attempted pool reuse this round.
    carry: Optional[CarryDiagnostics] = None


@dataclass(frozen=True)
class Selection:
    """A selector's answer: residual-*local* node ids plus diagnostics."""

    nodes: list[int]
    diagnostics: SelectionDiagnostics = field(default_factory=SelectionDiagnostics)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a selection must contain at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"selection contains duplicate nodes: {self.nodes}")


class SeedSelector(abc.ABC):
    """Strategy choosing the next seed batch on a residual graph."""

    #: Display name used in experiment reports ("TRIM", "TRIM-B(4)", ...).
    name: str = "abstract"

    #: How many seeds the selector commits per round (1 for TRIM).
    batch_size: int = 1

    @abc.abstractmethod
    def select(
        self, residual: ResidualGraph, rng: np.random.Generator
    ) -> Selection:
        """Choose the next batch of seeds.

        Parameters
        ----------
        residual:
            Round-``i`` state: the induced graph on inactive nodes and the
            remaining shortfall ``eta_i``.
        rng:
            The run's random stream (sampling inside the selector must draw
            from it so whole runs are reproducible from one seed).

        Returns
        -------
        Selection
            Residual-local node ids; the driver maps them back to original
            ids and observes their realized influence.
        """

    def select_with_pool(
        self,
        residual: ResidualGraph,
        rng: np.random.Generator,
        carry: Optional[CarriedMRRPool] = None,
    ) -> tuple[Selection, Optional[CarriedMRRPool]]:
        """Choose seeds, optionally reusing the previous round's mRR pool.

        The adaptive engine calls this instead of :meth:`select`, threading
        each session's :class:`~repro.sampling.mrr.CarriedMRRPool` from one
        round to the next.  The returned carry (or ``None``) becomes the
        ``carry`` of the session's next round.

        The default ignores ``carry`` and never exports one, so selectors
        without pool reuse (baselines, test stubs) behave exactly as
        before; TRIM-B overrides it, and TRIM inherits the override.
        """
        return self.select(residual, rng), None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FirstNodeSelector(SeedSelector):
    """Trivial selector used by tests: always picks local node 0.

    Exists so the adaptive driver can be exercised independently of the
    sampling machinery.
    """

    name = "first-node"

    def select(self, residual: ResidualGraph, rng: np.random.Generator) -> Selection:
        return Selection(nodes=[0])


class RandomNodeSelector(SeedSelector):
    """Uniform-random seed per round; the weakest sensible baseline."""

    name = "random"

    def select(self, residual: ResidualGraph, rng: np.random.Generator) -> Selection:
        return Selection(nodes=[int(rng.integers(residual.n))])
