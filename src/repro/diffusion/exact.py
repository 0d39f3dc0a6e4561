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
)
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph

_MAX_IC_EDGES = 20
_MAX_LT_WORLDS = 4_000_000

#: Worlds enumerated into one stacked block, and replayed per labeled BFS
#: by the exact expectations.
_REPLAY_CHUNK = 4096


def _mixed_radix_blocks(
    values: Sequence[Sequence[object]], weights: Sequence[Sequence[float]], dtype: type
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(worlds, probabilities)`` blocks of :data:`_REPLAY_CHUNK` worlds in
    ``itertools.product`` order, zero-probability worlds dropped: digit ``d``
    of a world's index picks one of ``values[d]``, and its probability is
    the ``np.prod`` of the picked ``weights``."""
    radices = np.array([len(options) for options in values], dtype=np.int64)
    value_table = np.zeros((len(radices), max(radices, default=1)), dtype=dtype)
    weight_table = np.zeros(value_table.shape, dtype=np.float64)
    for d, (options, chances) in enumerate(zip(values, weights)):
        value_table[d, : len(options)] = options
        weight_table[d, : len(options)] = chances
    # The last digit varies fastest.
    strides = np.array([np.prod(radices[d + 1:]) for d in range(len(radices))], np.int64)
    digits = np.arange(len(radices))
    total = int(np.prod(radices))
    for begin in range(0, total, _REPLAY_CHUNK):
        index = np.arange(begin, min(begin + _REPLAY_CHUNK, total), dtype=np.int64)
        choice = index[:, None] // strides % radices
        probabilities = np.prod(weight_table[digits, choice], axis=1)
        keep = probabilities > 0.0
        yield value_table[digits, choice][keep], probabilities[keep]


def _world_blocks(
    graph: DiGraph, model: DiffusionModel
) -> tuple[str, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The world kind and its blocks: IC worlds pick live or blocked per
    edge (``m <= 20``), LT worlds one in-edge or none per node."""
    if isinstance(model, IndependentCascade):
        if graph.m > _MAX_IC_EDGES:
            raise ConfigurationError(
                f"exact IC enumeration is limited to {_MAX_IC_EDGES} edges, "
                f"graph has {graph.m}"
            )
        # Upcast once: world probabilities must multiply in float64
        # regardless of the graph's (possibly compact float32) storage.
        probs = np.asarray(graph.out_csr[2], dtype=np.float64)
        return "ic", _mixed_radix_blocks(
            [(False, True)] * graph.m, [(1.0 - p, p) for p in probs], bool
        )
    if not isinstance(model, LinearThreshold):
        raise ConfigurationError(f"cannot enumerate realizations for {model!r}")
    indptr, sources, in_probs = graph.in_csr
    values, weights, world_count = [], [], 1
    for v in range(graph.n):
        span = range(int(indptr[v]), int(indptr[v + 1]))
        chosen = [int(sources[pos]) for pos in span]
        chances = [float(in_probs[pos]) for pos in span]
        none_probability = 1.0
        for chance in chances:
            none_probability -= chance
        if none_probability > 1e-12:
            chosen.append(-1)
            chances.append(none_probability)
        values.append(chosen)
        weights.append(chances)
        world_count *= len(chosen)
        if world_count > _MAX_LT_WORLDS:
            raise ConfigurationError(f"exact LT enumeration exceeds {_MAX_LT_WORLDS} worlds")
    return "lt", _mixed_radix_blocks(values, weights, np.int64)


def enumerate_realizations(
    graph: DiGraph, model: DiffusionModel
) -> Iterator[tuple[Realization, float]]:
    """Every realization of ``model`` on ``graph`` with its probability."""
    kind, blocks = _world_blocks(graph, model)
    world = ICRealization if kind == "ic" else LTRealization
    return (
        (world(graph, row), probability)
        for rows, probabilities in blocks
        for row, probability in zip(rows, probabilities.tolist())
    )


def enumerate_ic_realizations(graph: DiGraph) -> Iterator[tuple[ICRealization, float]]:
    """Yield every IC realization with its probability.

    Guarded to ``m <= 20`` (about a million worlds); larger graphs should use
    Monte Carlo instead.
    """
    return enumerate_realizations(graph, IndependentCascade())


def enumerate_lt_realizations(graph: DiGraph) -> Iterator[tuple[LTRealization, float]]:
    """Yield every LT live-edge world with its probability."""
    return enumerate_realizations(graph, LinearThreshold())


def _world_spreads(
    graph: DiGraph, model: DiffusionModel, seeds: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """``(I_phi(S), Pr[phi])`` for every enumerated world, in order; each
    block is one :func:`~repro.diffusion.realization.replay_worlds` call, so
    a left-to-right sum equals one ``phi.spread`` per world."""
    kind, blocks = _world_blocks(graph, model)
    starts = normalize_seeds(graph, seeds)
    for worlds, probabilities in blocks:
        count = len(probabilities)
        _, indptr = replay_worlds(
            graph,
            kind,
            worlds.reshape(-1),
            np.arange(count, dtype=np.int64),
            *tile_starts(starts, count),
        )
        yield from zip(np.diff(indptr).tolist(), probabilities.tolist())


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
