"""TRIM-B (paper Algorithm 3) and the certified doubling loop it runs.

Selecting one node per round makes ASTI slow when ``eta`` is large: many
rounds, each paying its own sampling bill.  TRIM-B amortizes by committing
``b`` seeds per round, chosen by greedy maximum coverage over the mRR pool,
at the cost of a ``rho_b = 1 - (1 - 1/b)^b`` factor in the per-round
guarantee (and an unquantified adaptivity gap, per the paper's remark in
Section 4.2).  ``b = 1`` is TRIM (Algorithm 2) exactly: ``rho_1 = 1`` and
``ln C(n, 1) = ln n``, so :class:`~repro.core.trim.TrimSelector` is this
selector with the batch fixed at one.

The round is OPIM-C's skeleton (Tang et al. 2018): start with a small pool,
take the coverage-maximizing batch, certify it with the concentration
bounds of Lemma A.2, and double the pool until the certificate
``Lambda_l(S*) / Lambda_u(S_circ) >= rho (1 - eps_hat)`` holds (or the
worst-case pool size ``theta_max`` is reached, which happens with
probability at most ``delta``).  :class:`DoublingSchedule` derives Lines
2-5 and :func:`certified_doubling` runs the loop, for TRIM and TRIM-B on
mRR pools and for the OPIM baselines on RR pools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.policy import SeedSelector, Selection, SelectionDiagnostics
from repro.diffusion.base import DiffusionModel
from repro.errors import BudgetExhaustedError, ConfigurationError, InfeasibleTargetError
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.bounds import (
    coverage_lower_bound,
    coverage_upper_bound,
    log_binomial,
)
from repro.sampling.mrr import CarriedMRRPool, MRRCollection, build_round_pool
from repro.sampling.rr import RRCollection
from repro.utils.validation import check_fraction, check_positive_int

_ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def batch_guarantee(b: int) -> float:
    """``rho_b = 1 - (1 - 1/b)^b``, the greedy max-coverage factor.

    Decreases from 1 (at ``b = 1``) toward ``1 - 1/e`` as ``b`` grows.
    """
    check_positive_int(b, "b")
    return 1.0 - (1.0 - 1.0 / b) ** b


class DoublingSchedule:
    """Lines 2-5: pool sizes and confidence parameters of the doubling loop.

    Built from the node count ``n``, the batch size ``b``, the failure
    budget ``delta``, the accuracy target ``eps_hat``, the picker's
    guarantee ``rho`` and an optional hard cap ``max_samples`` on the pool.
    """

    def __init__(
        self,
        n: int,
        b: int,
        delta: float,
        eps_hat: float,
        rho: float,
        max_samples: Optional[int] = None,
    ):
        self.b = b
        self.delta = delta
        self.eps_hat = eps_hat
        self.rho = rho

        # Line 2: the worst case union-bounds over all C(n, b) batches.
        log_inv_delta = math.log(6.0 / delta)
        log_choose = log_binomial(n, b)
        root_sum = math.sqrt(log_inv_delta) + math.sqrt(
            (log_choose + log_inv_delta) / rho
        )
        self.theta_max = 2.0 * n * root_sum * root_sum / (b * eps_hat ** 2)
        if max_samples is not None:
            self.theta_max = min(self.theta_max, float(max_samples))

        # Line 3: initial pool size; Line 4: number of doubling iterations.
        self.theta_0 = max(1, int(math.ceil(self.theta_max * b * eps_hat ** 2 / n)))
        self.iterations = max(
            1, int(math.ceil(math.log2(self.theta_max / self.theta_0))) + 1
        )

        # Line 5: union-bounded confidence parameters.
        log_3t_delta = math.log(3.0 * self.iterations / delta)
        self.a1 = log_3t_delta + log_choose
        self.a2 = log_3t_delta

    def pool_size_at(self, iteration: int) -> int:
        """Pool size after ``iteration`` doublings (0-based), capped."""
        size = self.theta_0 * (2 ** iteration)
        return int(min(size, math.ceil(self.theta_max)))


class TrimBParameters(DoublingSchedule):
    """Algorithm 3, Lines 1-5 (Algorithm 2's at ``b = 1``).

    Line 1 derives ``delta`` and ``eps_hat`` from ``(eta, epsilon)``; the
    picker's guarantee is ``rho_b``.
    """

    def __init__(
        self,
        n: int,
        eta: int,
        epsilon: float,
        b: int,
        max_samples: Optional[int] = None,
    ):
        check_fraction(epsilon, "epsilon")
        check_positive_int(b, "b")
        if not 1 <= eta <= n:
            raise InfeasibleTargetError(eta, n)
        if b > n:
            raise ConfigurationError(f"batch size b={b} exceeds node count n={n}")
        # Line 1: failure budget and corrected accuracy target.
        delta = epsilon / (100.0 * _ONE_MINUS_INV_E * (1.0 - epsilon) * eta)
        eps_hat = 99.0 * epsilon / (100.0 - epsilon)
        super().__init__(n, b, delta, eps_hat, batch_guarantee(b), max_samples)


@dataclass(frozen=True)
class CertifiedPick:
    """Where :func:`certified_doubling` stopped."""

    nodes: list[int]
    coverage: int            # sets in the final pool the batch covers
    certified_ratio: float   # Lambda_l / Lambda_u at the stop
    iterations: int          # doubling iterations used
    certified: bool          # the ratio reached rho (1 - eps_hat)


def certified_doubling(
    pool: Union[MRRCollection, RRCollection], schedule: DoublingSchedule
) -> CertifiedPick:
    """Lines 6-14: grow, pick, certify with Lemma A.2, double.

    The pick is the coverage argmax when ``b = 1`` and the greedy
    max-coverage batch otherwise (both break ties toward the smallest id).
    """
    b = schedule.b
    target = schedule.rho * (1.0 - schedule.eps_hat)
    pool.grow_to(schedule.theta_0)
    for t in range(schedule.iterations):
        if b == 1:
            node, coverage = pool.index.argmax_node()
            nodes = [node]
        else:
            greedy = pool.index.greedy_max_coverage(b)
            nodes, coverage = greedy.nodes, greedy.covered
        lower = coverage_lower_bound(coverage, schedule.a1)
        upper = coverage_upper_bound(coverage / schedule.rho, schedule.a2)
        ratio = lower / upper if upper > 0 else 0.0
        if ratio >= target or t == schedule.iterations - 1:
            break
        pool.grow_to(schedule.pool_size_at(t + 1))
    return CertifiedPick(
        nodes=[int(v) for v in nodes],
        coverage=coverage,
        certified_ratio=ratio,
        iterations=t + 1,
        certified=ratio >= target,
    )


class TrimBSelector(SeedSelector):
    """Algorithm 3 as an ASTI-compatible selector.

    Parameters
    ----------
    model:
        Diffusion model (IC or LT).
    b:
        Seeds committed per round.  When fewer than ``b`` inactive nodes
        remain, or the shortfall is below ``b``, the round shrinks its
        batch (and the schedule is derived for the effective batch).
    epsilon:
        Accuracy parameter in ``(0, 1)``; the paper's experiments use 0.5.
    max_samples:
        Optional hard cap on the mRR pool per round.  The theory never needs
        it — ``theta_max`` is the provable worst case — but pure-Python runs
        may want a smaller envelope.  With ``strict_budget=True`` exceeding
        the cap without certification raises
        :class:`~repro.errors.BudgetExhaustedError` instead of returning the
        best-effort batch.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` carrying the
        engine policy this selector consumes: ``sample_batch_size`` (mRR
        sets per vectorized engine call — purely a throughput knob,
        distinct from the seed batch ``b``), ``reuse_pool`` (carry
        the mRR pool across rounds when driven through
        :meth:`select_with_pool`; sets whose members are all still
        inactive and whose root count matches the new round's rule are
        re-validated instead of resampled — see
        :class:`~repro.sampling.mrr.CarriedMRRPool`; ``False`` restores
        the paper-exact fresh pool every round), and the parallel
        ``runtime`` (each round's pool growth fans its sample chunks out
        across the workers over the shared-memory residual graph, seeded
        by global chunk index so the pool is bit-identical for any worker
        count).  ``None`` means ``ExecutionContext()``; the selector never
        closes the context it is handed.
    """

    def __init__(
        self,
        model: DiffusionModel,
        b: int,
        epsilon: float = 0.5,
        max_samples: Optional[int] = None,
        strict_budget: bool = False,
        context: Optional[ExecutionContext] = None,
    ):
        check_fraction(epsilon, "epsilon")
        check_positive_int(b, "b")
        self.context = context if context is not None else ExecutionContext()
        self.model = model
        self.b = b
        self.epsilon = epsilon
        self.max_samples = max_samples
        self.strict_budget = strict_budget
        self.name = f"TRIM-B({b})"
        self.batch_size = b

    def select(self, residual: ResidualGraph, rng: np.random.Generator) -> Selection:
        selection, _ = self.select_with_pool(residual, rng)
        return selection

    def select_with_pool(
        self,
        residual: ResidualGraph,
        rng: np.random.Generator,
        carry: Optional[CarriedMRRPool] = None,
    ) -> tuple[Selection, Optional[CarriedMRRPool]]:
        n = residual.n
        eta = residual.shortfall
        if eta > n:
            raise InfeasibleTargetError(eta, n)
        b = min(self.b, n, eta)
        if n <= b:
            # Seeding everything that's left trivially meets the target.
            selection = Selection(
                nodes=list(range(n)),
                diagnostics=SelectionDiagnostics(estimated_gain=float(eta)),
            )
            return selection, None

        schedule = TrimBParameters(n, eta, self.epsilon, b, self.max_samples)
        pool, carry_stats = build_round_pool(
            residual,
            self.model,
            rng,
            carry=carry if self.context.reuse_pool else None,
            context=self.context,
        )
        pick = certified_doubling(pool, schedule)
        if self.strict_budget and not pick.certified and self.max_samples is not None:
            raise BudgetExhaustedError(
                f"{self.name} could not certify a rho_b(1-1/e)(1-eps) batch "
                f"of {b} within {len(pool)} mRR sets (cap {self.max_samples})"
            )

        selection = Selection(
            nodes=pick.nodes,
            diagnostics=SelectionDiagnostics(
                samples_generated=pool.fresh_count,
                iterations=pick.iterations,
                certified_ratio=pick.certified_ratio,
                estimated_gain=pool.eta * pick.coverage / len(pool),
                samples_carried=pool.adopted_count,
                carry=carry_stats if carry is not None else None,
            ),
        )
        new_carry = (
            pool.export_carry(residual) if self.context.reuse_pool else None
        )
        return selection, new_carry

    def __repr__(self) -> str:
        return f"TrimBSelector(b={self.b}, epsilon={self.epsilon})"
