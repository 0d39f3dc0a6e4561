"""One-at-a-time reference implementations: oracles for the batched engines.

The library has one production implementation per engine operation.  This
module keeps the straightforward loops they replaced, with the same code
and random draw order: one reverse BFS or cascade per call, one world
replay per call, one (m)RR set per draw, greedy max-cover with a full
argmax per pick, and CELF with fresh Monte-Carlo noise per evaluation.
Tests check the engines against them and the throughput benchmarks time
them as baselines; lint rule REP009 keeps production modules from
importing this one.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.baselines.celf import CelfResult, _run_celf
from repro.diffusion.base import DiffusionModel, normalize_seeds
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold, check_lt_validity
from repro.diffusion.montecarlo import estimate_spread
from repro.diffusion.realization import ICRealization, LTRealization, Realization
from repro.errors import ConfigurationError, NodeNotFoundError, SamplingError
from repro.graph.digraph import DiGraph, gather_csr_rows
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex, GreedyCoverResult
from repro.sampling.mrr import RootCountRule
from repro.utils.arrays import sorted_unique
from repro.utils.rng import RandomSource, as_generator


def _is_lt(model: DiffusionModel) -> bool:
    if isinstance(model, (LinearThreshold, IndependentCascade)):
        return isinstance(model, LinearThreshold)
    raise TypeError(f"no reference implementation for {type(model).__name__}")


def reverse_sample(
    model: DiffusionModel,
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    out: np.ndarray,
) -> np.ndarray:
    """One stochastic reverse BFS from the distinct ``roots``; visited ids.

    ``out`` is a boolean scratch array of length ``graph.n``, all False on
    entry and all False again on return.  IC flips each in-edge coin once,
    when its target is first expanded; LT walks backward, each visited node
    keeping at most one in-edge.
    """
    lt = _is_lt(model)
    if lt:
        check_lt_validity(graph)
    indptr, sources, probs = graph.in_csr
    visited = out
    roots = np.asarray(roots, dtype=np.int64)
    visited[roots] = True
    if lt:
        collected = list(int(r) for r in roots)
        stack = list(collected)
        while stack:
            v = stack.pop()
            start, end = int(indptr[v]), int(indptr[v + 1])
            if start == end:
                continue
            x = rng.random()
            acc = 0.0
            for pos in range(start, end):
                acc += float(probs[pos])  # float64 under compact storage
                if x < acc:
                    u = int(sources[pos])
                    if not visited[u]:
                        visited[u] = True
                        collected.append(u)
                        stack.append(u)
                    break
        result = np.asarray(collected, dtype=np.int64)
    else:
        pieces = [roots]
        frontier = roots
        while len(frontier):
            positions = gather_csr_rows(indptr, frontier)
            if len(positions) == 0:
                break
            fired = rng.random(len(positions)) < probs[positions]
            candidates = sources[positions[fired]]
            fresh = sorted_unique(candidates[~visited[candidates]])
            if len(fresh) == 0:
                break
            visited[fresh] = True
            pieces.append(fresh)
            frontier = fresh
        result = np.concatenate(pieces) if len(pieces) > 1 else roots.copy()
    visited[result] = False  # restore the pooled scratch buffer
    return result


def simulate(
    model: DiffusionModel,
    graph: DiGraph,
    seeds: Sequence[int],
    seed: RandomSource = None,
) -> np.ndarray:
    """One forward cascade from ``seeds``; the boolean active mask.

    IC flips each out-edge coin when its source activates; LT draws every
    threshold up front and activates a node once its accumulated incoming
    weight reaches its threshold.
    """
    lt = _is_lt(model)
    if lt:
        check_lt_validity(graph)
    rng = as_generator(seed)
    indptr, targets, probs = graph.out_csr
    if lt:
        thresholds = rng.random(graph.n)
        accumulated = np.zeros(graph.n, dtype=np.float64)
    active = np.zeros(graph.n, dtype=bool)
    active[normalize_seeds(graph, seeds)] = True
    frontier = np.flatnonzero(active)
    while len(frontier):
        positions = gather_csr_rows(indptr, frontier)
        if len(positions) == 0:
            break
        if lt:
            touched = targets[positions]
            np.add.at(accumulated, touched, probs[positions])
            crossers = sorted_unique(touched)
            fresh = crossers[
                (~active[crossers]) & (accumulated[crossers] >= thresholds[crossers])
            ]
        else:
            fired = rng.random(len(positions)) < probs[positions]
            candidates = targets[positions[fired]]
            fresh = sorted_unique(candidates[~active[candidates]])
        active[fresh] = True
        frontier = fresh
    return active


def spread(
    model: DiffusionModel,
    graph: DiGraph,
    seeds: Sequence[int],
    seed: RandomSource = None,
) -> int:
    """The size ``I(S)`` of one cascade."""
    return int(simulate(model, graph, seeds, seed).sum())


def simulate_batch(
    model: DiffusionModel,
    graph: DiGraph,
    seeds: Sequence[int],
    n_sims: int,
    seed: RandomSource = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_sims`` cascades from a :func:`simulate` loop, CSR-packed like
    :meth:`~repro.diffusion.base.DiffusionModel.simulate_batch`."""
    if n_sims < 0:
        raise ConfigurationError(f"n_sims must be >= 0, got {n_sims}")
    seeds = normalize_seeds(graph, seeds)
    rng = as_generator(seed)
    pieces = [np.flatnonzero(simulate(model, graph, seeds, rng)) for _ in range(n_sims)]
    indptr = np.zeros(n_sims + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pieces], out=indptr[1:])
    members = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return members, indptr


def _start_mask(
    phi: Realization, seeds: Sequence[int], allowed: Optional[np.ndarray]
) -> np.ndarray:
    """Seed validation of :func:`reachable_from`: the initial visited mask."""
    visited = np.zeros(phi.graph.n, dtype=bool)
    for s in seeds:
        s = int(s)
        if not 0 <= s < phi.graph.n:
            raise NodeNotFoundError(s, phi.graph.n)
        if allowed is None or allowed[s]:
            visited[s] = True
    return visited


def reachable_from(
    phi: Realization,
    seeds: Sequence[int],
    allowed: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Nodes reachable from ``seeds`` over ``phi``'s live edges, one world
    at a time; the oracle of
    :func:`~repro.diffusion.realization.replay_worlds`.

    ``allowed`` (optional boolean mask) restricts traversal to a node
    subset.  IC follows the world's live-edge flags; LT follows edge
    ``u -> v`` exactly when ``v`` chose ``u``.
    """
    visited = _start_mask(phi, seeds, allowed)
    indptr, targets, _ = phi.graph.out_csr
    frontier = np.flatnonzero(visited)
    if isinstance(phi, ICRealization):
        while len(frontier):
            positions = gather_csr_rows(indptr, frontier)
            positions = positions[phi.live_edges[positions]]
            candidates = targets[positions]
            if allowed is not None:
                candidates = candidates[allowed[candidates]]
            fresh = sorted_unique(candidates[~visited[candidates]])
            visited[fresh] = True
            frontier = fresh
        return visited
    if not isinstance(phi, LTRealization):
        raise TypeError(f"no reference replay for {type(phi).__name__}")
    while len(frontier):
        positions = gather_csr_rows(indptr, frontier)
        sources = np.repeat(
            frontier, indptr[frontier + 1] - indptr[frontier]
        )
        candidates = targets[positions]
        # Edge u -> v is live exactly when v chose u.
        live = phi.chosen_source[candidates] == sources
        candidates = candidates[live]
        if allowed is not None:
            candidates = candidates[allowed[candidates]]
        fresh = sorted_unique(candidates[~visited[candidates]])
        visited[fresh] = True
        frontier = fresh
    return visited


class RRSampler:
    """Single-root RR sets, one reverse BFS per set."""

    def __init__(
        self, graph: DiGraph, model: DiffusionModel, seed: RandomSource = None
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample RR sets on an empty graph")
        self.graph = graph
        self.model = model
        self._rng = as_generator(seed)
        self._scratch = np.zeros(graph.n, dtype=bool)

    def _roots(self) -> np.ndarray:
        return np.asarray([self._rng.integers(self.graph.n)], dtype=np.int64)

    def sample(self) -> np.ndarray:
        """One random set: the nodes reaching this draw's roots."""
        roots = self._roots()
        return reverse_sample(self.model, self.graph, roots, self._rng, self._scratch)

    def sample_into(self, index: CoverageIndex, count: int) -> None:
        """Append ``count`` fresh sets to a coverage index."""
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        for _ in range(count):
            index.add(self.sample())


class MRRSampler(RRSampler):
    """mRR sets on a (residual) graph; ``rule`` defaults to ``eta``'s."""

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        eta: int,
        seed: RandomSource = None,
        rule: RootCountRule = None,
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample mRR sets on an empty graph")
        if not 1 <= eta <= graph.n:
            raise SamplingError(
                f"eta must be in [1, n={graph.n}], got {eta}; an infeasible "
                f"shortfall should be caught before sampling"
            )
        super().__init__(graph, model, seed)
        self.eta = int(eta)
        self.rule = rule if rule is not None else RootCountRule.for_target(graph.n, eta)

    def _roots(self) -> np.ndarray:
        k = self.rule.draw(self._rng)
        if k * 8 < self.graph.n:
            # Rejection-free distinct sampling via permutation is O(n); for
            # small k the direct choice without replacement is cheaper.
            return self._rng.choice(self.graph.n, size=k, replace=False)
        return self._rng.permutation(self.graph.n)[:k]


def greedy_max_coverage_eager(
    index: CoverageIndex, budget: int, stop_at_coverage: Optional[int] = None
) -> GreedyCoverResult:
    """:meth:`CoverageIndex.greedy_max_coverage` with a full argmax per pick.

    Each pick decrements the gains by one ``bincount`` over the members of
    the newly covered sets; ties go to the smallest node id.
    """
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    if budget > index.n:
        raise ConfigurationError(f"budget {budget} exceeds node count {index.n}")
    members, set_indptr = index.packed()
    gains = index.coverage_counts()
    covered = np.zeros(len(index), dtype=bool)
    node_indptr, node_sets = index._inverted_index()
    selected: list[int] = []
    marginal: list[int] = []
    covered_total = 0
    for _ in range(budget):
        if stop_at_coverage is not None and covered_total >= stop_at_coverage:
            break
        v = int(gains.argmax())
        gain = int(gains[v])
        if gain < 0:  # every node already selected (tiny graphs)
            break
        selected.append(v)
        marginal.append(max(gain, 0))
        if gain > 0:
            candidate_sids = node_sets[node_indptr[v] : node_indptr[v + 1]]
            fresh = candidate_sids[~covered[candidate_sids]]
            covered[fresh] = True
            covered_total += len(fresh)
            touched = members[gather_csr_rows(set_indptr, fresh)]
            gains -= np.bincount(touched, minlength=index.n)
        gains[v] = -1  # never reselect
    return GreedyCoverResult(selected, covered_total, marginal)


def fresh_noise_celf(
    graph: DiGraph,
    model: DiffusionModel,
    samples: int,
    seed: RandomSource = None,
    k: Optional[int] = None,
    eta: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> CelfResult:
    """CELF scoring every evaluation on a fresh Monte-Carlo estimate.

    ``k`` picks ``k`` seeds; ``eta`` adds seeds until the estimate reaches
    it.  The lazy queue mixes estimates from different noise, so two runs
    under one seed may differ.
    """
    if (k is None) == (eta is None):
        raise ConfigurationError("fresh_noise_celf needs exactly one of k= or eta=")
    rng = as_generator(seed)

    def spread_of(candidate_seeds) -> float:
        return estimate_spread(
            graph, model, candidate_seeds, samples=samples, seed=rng, context=context
        ).mean

    return _run_celf(
        spread_of,
        lambda: [spread_of([v]) for v in range(graph.n)],
        samples,
        max_seeds=k if k is not None else graph.n,
        stop_at_spread=float(eta) if eta is not None else None,
    )
