"""Exact expected spreads by exhaustive realization enumeration.

Computing expected spread exactly is #P-hard in general (Chen et al. 2010),
but on the tiny graphs used in tests and in the paper's worked examples we
can enumerate the full realization space:

* IC: ``2^m`` live/blocked patterns, each with probability
  ``prod(p or 1-p)``;
* LT: each node independently keeps one of its in-edges or none, giving
  ``prod_v (indeg(v) + 1)`` worlds.

These functions power the property tests that pin the mRR estimator's bias
bounds (paper Theorem 3.3) against ground truth, and reproduce the paper's
Example 2.3 numerically.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

import numpy as np

from repro.diffusion.base import DiffusionModel, normalize_seeds, tile_starts
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.realization import (
    ICRealization,
    LTRealization,
    Realization,
    replay_worlds,
    stack_worlds,
)
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph

_MAX_IC_EDGES = 20
_MAX_LT_WORLDS = 4_000_000

#: Enumerated worlds replayed per labeled BFS by the exact expectations.
_REPLAY_CHUNK = 4096


def enumerate_ic_realizations(
    graph: DiGraph,
) -> Iterator[tuple[ICRealization, float]]:
    """Yield every IC realization with its probability.

    Guarded to ``m <= 20`` (about a million worlds); larger graphs should use
    Monte Carlo instead.
    """
    if graph.m > _MAX_IC_EDGES:
        raise ConfigurationError(
            f"exact IC enumeration is limited to {_MAX_IC_EDGES} edges, "
            f"graph has {graph.m}"
        )
    # Upcast once: world probabilities must multiply in float64 regardless
    # of the graph's (possibly compact float32) storage policy.
    _, _, probs = graph.out_csr
    probs = np.asarray(probs, dtype=np.float64)
    for pattern in itertools.product((False, True), repeat=graph.m):
        live = np.asarray(pattern, dtype=bool)
        probability = float(np.prod(np.where(live, probs, 1.0 - probs)))
        if probability > 0.0:
            yield ICRealization(graph, live), probability


def enumerate_lt_realizations(
    graph: DiGraph,
) -> Iterator[tuple[LTRealization, float]]:
    """Yield every LT live-edge world with its probability."""
    indptr, sources, probs = graph.in_csr
    per_node_options = []
    world_count = 1
    for v in range(graph.n):
        start, end = int(indptr[v]), int(indptr[v + 1])
        options: list = []
        none_probability = 1.0
        for pos in range(start, end):
            options.append((int(sources[pos]), float(probs[pos])))
            none_probability -= float(probs[pos])
        if none_probability > 1e-12:
            options.append((-1, none_probability))
        per_node_options.append(options)
        world_count *= len(options)
        if world_count > _MAX_LT_WORLDS:
            raise ConfigurationError(
                f"exact LT enumeration exceeds {_MAX_LT_WORLDS} worlds"
            )
    for combo in itertools.product(*per_node_options):
        chosen = np.fromiter((c[0] for c in combo), dtype=np.int64, count=graph.n)
        probability = float(np.prod([c[1] for c in combo]))
        if probability > 0.0:
            yield LTRealization(graph, chosen), probability


def enumerate_realizations(
    graph: DiGraph, model: DiffusionModel
) -> Iterator[tuple[Realization, float]]:
    """Dispatch enumeration on the model type."""
    if isinstance(model, IndependentCascade):
        return enumerate_ic_realizations(graph)
    if isinstance(model, LinearThreshold):
        return enumerate_lt_realizations(graph)
    raise ConfigurationError(f"cannot enumerate realizations for {model!r}")


def _world_spreads(
    graph: DiGraph, model: DiffusionModel, seeds: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """``(I_phi(S), Pr[phi])`` for every enumerated world, in order.

    Worlds are replayed :data:`_REPLAY_CHUNK` at a time, one batched
    :func:`~repro.diffusion.realization.replay_worlds` call per chunk, so
    callers summing the pairs left to right get exactly the value of one
    ``phi.spread`` per world.
    """
    worlds = enumerate_realizations(graph, model)
    starts = normalize_seeds(graph, seeds)
    while True:
        chunk = list(itertools.islice(worlds, _REPLAY_CHUNK))
        if not chunk:
            return
        kind, flat = stack_worlds([phi for phi, _ in chunk])
        _, indptr = replay_worlds(
            graph,
            kind,
            flat,
            np.arange(len(chunk), dtype=np.int64),
            *tile_starts(starts, len(chunk)),
        )
        yield from zip(np.diff(indptr).tolist(), (p for _, p in chunk))


def exact_expected_spread(
    graph: DiGraph, model: DiffusionModel, seeds: Sequence[int]
) -> float:
    """``E[I(S)]`` by full enumeration (Equation 1 of the paper)."""
    return sum(size * p for size, p in _world_spreads(graph, model, seeds))


def exact_expected_truncated_spread(
    graph: DiGraph, model: DiffusionModel, seeds: Sequence[int], eta: int
) -> float:
    """``E[Gamma(S)] = E[min{I(S), eta}]`` by full enumeration."""
    if eta < 1:
        raise ConfigurationError(f"eta must be >= 1, got {eta}")
    return sum(
        min(size, eta) * p for size, p in _world_spreads(graph, model, seeds)
    )
