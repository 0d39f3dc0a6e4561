"""IMM: Influence Maximization via Martingales (Tang et al., SIGMOD 2015).

The second big RR-set-based IM algorithm referenced by the paper (its [40]),
included alongside OPIM for library completeness and as an independent
cross-check of the RR machinery.  Where OPIM doubles a single pool until a
confidence certificate holds, IMM runs two phases:

1. **Parameter estimation** — a geometric search over guesses ``x`` of the
   optimal spread: for each guess, generate enough RR sets to test whether
   greedy coverage certifies spread ``>= n / 2^x``; the first success pins
   a lower bound ``LB`` on ``OPT``.
2. **Node selection** — generate ``theta(LB)`` RR sets (the martingale
   bound) and return the greedy cover.

The returned set is a ``(1 - 1/e - eps)``-approximation with probability
``1 - 1/n`` under the paper's analysis; our implementation follows the
published pseudocode with the standard ``eps' = sqrt(2) eps`` split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.baselines.opim import InfluenceMaximizationResult
from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.bounds import log_binomial
from repro.sampling.rr import RRCollection
from repro.utils.rng import RandomSource, as_generator
from repro.utils.validation import check_fraction, check_positive_int

_ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


@dataclass(frozen=True)
class ImmDiagnostics:
    """Phase-level accounting for an IMM run."""

    lower_bound: float        # certified LB on OPT from phase 1
    phase1_samples: int
    phase2_samples: int
    geometric_rounds: int


def imm_influence_maximization(
    graph: DiGraph,
    model: DiffusionModel,
    k: int,
    epsilon: float = 0.5,
    seed: RandomSource = None,
    max_samples: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> InfluenceMaximizationResult:
    """Select ``k`` seeds with IMM's two-phase sampling schedule.

    Returns the same result type as
    :func:`repro.baselines.opim.opim_influence_maximization`, so callers
    can swap solvers freely; IMM's phase diagnostics are attached to the
    certified ratio slot as the fraction ``LB / estimated_spread`` (a
    quality indicator in [0, 1]).  ``max_samples`` caps every pool;
    ``context`` supplies the engine policy.
    """
    check_positive_int(k, "k")
    check_fraction(epsilon, "epsilon")
    if k > graph.n:
        raise ConfigurationError(f"k={k} exceeds node count {graph.n}")
    rng = as_generator(seed)
    n = graph.n

    eps_prime = math.sqrt(2.0) * epsilon
    log_choose = log_binomial(n, k)
    log_n = math.log(max(n, 2))

    pool = RRCollection(graph, model, seed=rng, context=context)
    lower_bound = 1.0

    # Phase 1: geometric search for a lower bound on OPT.
    max_rounds = max(1, int(math.ceil(math.log2(n))) - 1)
    for i in range(1, max_rounds + 1):
        x = n / (2.0 ** i)
        lambda_prime = (
            (2.0 + 2.0 * eps_prime / 3.0)
            * (log_choose + log_n + math.log(max(math.log2(n), 2.0)))
            * n
            / (eps_prime ** 2)
        )
        theta_i = int(math.ceil(lambda_prime / x))
        if max_samples is not None:
            theta_i = min(theta_i, max_samples)
        pool.grow_to(theta_i)
        greedy = pool.index.greedy_max_coverage(k)
        estimated = n * greedy.covered / len(pool)
        if estimated >= (1.0 + eps_prime) * x:
            lower_bound = estimated / (1.0 + eps_prime)
            break
        if max_samples is not None and theta_i >= max_samples:
            lower_bound = max(1.0, estimated / (1.0 + eps_prime))
            break
    else:
        lower_bound = max(1.0, k * 1.0)

    # Phase 2: the martingale sample bound at the certified LB.
    alpha = math.sqrt(log_n + math.log(2.0))
    beta = math.sqrt(_ONE_MINUS_INV_E * (log_choose + log_n + math.log(2.0)))
    lambda_star = (
        2.0 * n * ((_ONE_MINUS_INV_E * alpha + beta) ** 2) / (epsilon ** 2)
    )
    theta = int(math.ceil(lambda_star / lower_bound))
    if max_samples is not None:
        theta = min(theta, max_samples)
    pool.grow_to(theta)

    greedy = pool.index.greedy_max_coverage(k)
    estimated = n * greedy.covered / len(pool)
    quality = min(1.0, lower_bound / estimated) if estimated > 0 else 0.0
    return InfluenceMaximizationResult(
        seeds=[int(v) for v in greedy.nodes],
        estimated_spread=estimated,
        samples=len(pool),
        certified_ratio=quality,
    )


def imm_diagnostics(
    graph: DiGraph,
    model: DiffusionModel,
    k: int,
    epsilon: float = 0.5,
    seed: RandomSource = None,
    max_samples: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> ImmDiagnostics:
    """Run phase 1 only and report the schedule IMM would use.

    Useful for teaching/benchmarks: shows how the geometric search narrows
    in on OPT and how large the phase-2 pool would be.
    """
    check_positive_int(k, "k")
    check_fraction(epsilon, "epsilon")
    rng = as_generator(seed)
    n = graph.n
    eps_prime = math.sqrt(2.0) * epsilon
    log_choose = log_binomial(n, k)
    log_n = math.log(max(n, 2))

    pool = RRCollection(graph, model, seed=rng, context=context)
    lower_bound = 1.0
    rounds = 0
    max_rounds = max(1, int(math.ceil(math.log2(n))) - 1)
    for i in range(1, max_rounds + 1):
        rounds = i
        x = n / (2.0 ** i)
        lambda_prime = (
            (2.0 + 2.0 * eps_prime / 3.0)
            * (log_choose + log_n + math.log(max(math.log2(n), 2.0)))
            * n
            / (eps_prime ** 2)
        )
        theta_i = int(math.ceil(lambda_prime / x))
        if max_samples is not None:
            theta_i = min(theta_i, max_samples)
        pool.grow_to(theta_i)
        greedy = pool.index.greedy_max_coverage(k)
        estimated = n * greedy.covered / len(pool)
        if estimated >= (1.0 + eps_prime) * x:
            lower_bound = estimated / (1.0 + eps_prime)
            break
        if max_samples is not None and theta_i >= max_samples:
            break
    phase1 = len(pool)
    alpha = math.sqrt(log_n + math.log(2.0))
    beta = math.sqrt(_ONE_MINUS_INV_E * (log_choose + log_n + math.log(2.0)))
    lambda_star = 2.0 * n * ((_ONE_MINUS_INV_E * alpha + beta) ** 2) / (epsilon ** 2)
    theta2 = int(math.ceil(lambda_star / max(lower_bound, 1.0)))
    if max_samples is not None:
        theta2 = min(theta2, max_samples)
    return ImmDiagnostics(
        lower_bound=lower_bound,
        phase1_samples=phase1,
        phase2_samples=theta2,
        geometric_rounds=rounds,
    )
