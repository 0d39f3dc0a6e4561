"""TRIM: TRuncated Influence Maximization (paper Algorithm 2).

One round of ASTI must find a node whose expected marginal *truncated*
spread is within ``(1 - 1/e)(1 - epsilon)`` of the best possible.  TRIM does
so OPIM-C-style: start with a small pool of mRR sets, take the
coverage-maximizing node ``v*``, certify its quality with the concentration
bounds of Lemma A.2, and double the pool until the certificate
``Lambda_l(v*) / Lambda_u(v_circ) >= 1 - eps_hat`` holds (or the worst-case
pool size ``theta_max`` is reached, which happens with probability at most
``delta``).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.policy import SeedSelector, Selection, SelectionDiagnostics
from repro.diffusion.base import DiffusionModel
from repro.errors import BudgetExhaustedError, InfeasibleTargetError
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.bounds import coverage_lower_bound, coverage_upper_bound
from repro.sampling.mrr import CarriedMRRPool, build_round_pool
from repro.utils.validation import check_fraction

_ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


class TrimParameters:
    """The derived constants of Algorithm 2, Lines 1-5.

    Computed once per round from ``(n_i, eta_i, epsilon)``; isolated in a
    class so the tests can pin each formula independently.
    """

    def __init__(self, n: int, eta: int, epsilon: float, max_samples: Optional[int] = None):
        check_fraction(epsilon, "epsilon")
        if not 1 <= eta <= n:
            raise InfeasibleTargetError(eta, n)
        self.n = n
        self.eta = eta
        self.epsilon = epsilon

        # Line 1: failure budget and corrected accuracy target.
        self.delta = epsilon / (100.0 * _ONE_MINUS_INV_E * (1.0 - epsilon) * eta)
        self.eps_hat = 99.0 * epsilon / (100.0 - epsilon)

        # Line 2: worst-case pool size.
        log_inv_delta = math.log(6.0 / self.delta)
        root_sum = math.sqrt(log_inv_delta) + math.sqrt(math.log(n) + log_inv_delta)
        self.theta_max = 2.0 * n * root_sum * root_sum / (self.eps_hat ** 2)
        if max_samples is not None:
            self.theta_max = min(self.theta_max, float(max_samples))

        # Line 3: initial pool size; Line 4: number of doubling iterations.
        self.theta_0 = max(1, int(math.ceil(self.theta_max * self.eps_hat ** 2 / n)))
        self.iterations = max(1, int(math.ceil(math.log2(self.theta_max / self.theta_0))) + 1)

        # Line 5: union-bounded confidence parameters.
        log_3t_delta = math.log(3.0 * self.iterations / self.delta)
        self.a1 = log_3t_delta + math.log(n)
        self.a2 = log_3t_delta

    def pool_size_at(self, iteration: int) -> int:
        """Pool size after ``iteration`` doublings (0-based), capped."""
        size = self.theta_0 * (2 ** iteration)
        return int(min(size, math.ceil(self.theta_max)))


class TrimSelector(SeedSelector):
    """Algorithm 2 as an ASTI-compatible selector.

    Parameters
    ----------
    model:
        Diffusion model (IC or LT).
    epsilon:
        Accuracy parameter in ``(0, 1)``; the paper's experiments use 0.5.
    max_samples:
        Optional hard cap on the mRR pool per round.  The theory never needs
        it — ``theta_max`` is the provable worst case — but pure-Python runs
        may want a smaller envelope.  With ``strict_budget=True`` exceeding
        the cap without certification raises
        :class:`~repro.errors.BudgetExhaustedError` instead of returning the
        best-effort node.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` carrying the
        engine policy this selector consumes: ``sample_batch_size`` (mRR
        sets per vectorized engine call — purely a throughput knob,
        distinct from TRIM-B's seed batch ``b``), ``reuse_pool`` (carry
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
        epsilon: float = 0.5,
        max_samples: Optional[int] = None,
        strict_budget: bool = False,
        context: Optional[ExecutionContext] = None,
    ):
        check_fraction(epsilon, "epsilon")
        self.context = context if context is not None else ExecutionContext()
        self.model = model
        self.epsilon = epsilon
        self.max_samples = max_samples
        self.strict_budget = strict_budget
        self.name = "TRIM"
        self.batch_size = 1

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
        if n == 1:
            # Only one inactive node left: no sampling needed.
            selection = Selection(
                nodes=[0], diagnostics=SelectionDiagnostics(estimated_gain=1.0)
            )
            return selection, None

        params = TrimParameters(n, eta, self.epsilon, self.max_samples)
        pool, carry_stats = build_round_pool(
            residual,
            self.model,
            rng,
            carry=carry if self.context.reuse_pool else None,
            context=self.context,
        )
        pool.grow_to(params.theta_0)

        best_node = 0
        certified = 0.0
        iterations_used = params.iterations
        for t in range(params.iterations):
            best_node, coverage = pool.index.argmax_node()
            lower = coverage_lower_bound(coverage, params.a1)
            upper = coverage_upper_bound(coverage, params.a2)
            certified = lower / upper if upper > 0 else 0.0
            if certified >= 1.0 - params.eps_hat or t == params.iterations - 1:
                iterations_used = t + 1
                break
            pool.grow_to(params.pool_size_at(t + 1))
        else:  # pragma: no cover - loop always breaks on the last iteration
            iterations_used = params.iterations

        if (
            self.strict_budget
            and certified < 1.0 - params.eps_hat
            and self.max_samples is not None
        ):
            raise BudgetExhaustedError(
                f"TRIM could not certify a (1-1/e)(1-eps) node within "
                f"{len(pool)} mRR sets (cap {self.max_samples})"
            )

        gain = pool.estimated_node_truncated_spread(best_node)
        selection = Selection(
            nodes=[int(best_node)],
            diagnostics=SelectionDiagnostics(
                samples_generated=pool.fresh_count,
                iterations=iterations_used,
                certified_ratio=certified,
                estimated_gain=gain,
                samples_carried=pool.adopted_count,
                carry=carry_stats if carry is not None else None,
            ),
        )
        new_carry = (
            pool.export_carry(residual) if self.context.reuse_pool else None
        )
        return selection, new_carry

    def __repr__(self) -> str:
        return f"TrimSelector(epsilon={self.epsilon})"
