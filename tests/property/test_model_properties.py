"""Property tests tying the three views of each diffusion model together.

For both IC and LT, the library exposes three computations that must agree
in distribution:

1. direct forward simulation (``repro.testing.reference.simulate``),
2. sampling a live-edge realization and walking it,
3. exact enumeration of the realization space.

These tests check pairwise statistical agreement on small random graphs —
the kind of cross-validation that catches subtle sampling bugs (wrong
direction, double coin flips, missing randomized rounding) that unit tests
on fixed graphs can miss.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.diffusion.exact import exact_expected_spread
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.graph.digraph import DiGraph
from repro.graph.weighting import normalize_for_lt
from repro.testing import reference

TRIALS = 800
TOLERANCE = 0.25  # absolute, on expected spreads of a few nodes


@st.composite
def tiny_graphs(draw):
    """Graphs small enough for exact IC enumeration (m <= 9)."""
    n = draw(st.integers(min_value=2, max_value=5))
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda t: t[0] != t[1])
    pairs = draw(st.lists(pair, max_size=9, unique=True))
    probs = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return DiGraph.from_edges(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])


@given(tiny_graphs(), st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_ic_simulation_matches_exact(graph, data):
    model = IndependentCascade()
    seed_node = data.draw(st.integers(0, graph.n - 1))
    truth = exact_expected_spread(graph, model, [seed_node])
    rng = np.random.default_rng(0)
    simulated = np.mean(
        [reference.spread(model, graph, [seed_node], rng) for _ in range(TRIALS)]
    )
    assert abs(simulated - truth) < TOLERANCE


@given(tiny_graphs(), st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_ic_realization_walk_matches_simulation(graph, data):
    model = IndependentCascade()
    seed_node = data.draw(st.integers(0, graph.n - 1))
    rng = np.random.default_rng(1)
    via_realization = np.mean(
        [
            model.sample_realization(graph, rng).spread([seed_node])
            for _ in range(TRIALS)
        ]
    )
    via_simulation = np.mean(
        [reference.spread(model, graph, [seed_node], rng) for _ in range(TRIALS)]
    )
    assert abs(via_realization - via_simulation) < TOLERANCE


@given(tiny_graphs(), st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_lt_live_edge_equivalence(graph, data):
    """Kempe et al.'s theorem: LT == its live-edge process, in distribution."""
    graph = normalize_for_lt(graph)
    model = LinearThreshold()
    seed_node = data.draw(st.integers(0, graph.n - 1))
    rng = np.random.default_rng(2)
    via_threshold = np.mean(
        [reference.spread(model, graph, [seed_node], rng) for _ in range(TRIALS)]
    )
    via_live_edge = np.mean(
        [
            model.sample_realization(graph, rng).spread([seed_node])
            for _ in range(TRIALS)
        ]
    )
    assert abs(via_threshold - via_live_edge) < TOLERANCE


@given(tiny_graphs(), st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_rr_sets_unbiased_for_spread(graph, data):
    """Borgs et al.: E[I(S)] = n * Pr[R hits S], against exact enumeration."""
    from repro.sampling.rr import RRCollection

    model = IndependentCascade()
    seed_node = data.draw(st.integers(0, graph.n - 1))
    truth = exact_expected_spread(graph, model, [seed_node])
    pool = RRCollection(graph, model, seed=3)
    pool.grow_to(4000)
    estimate = pool.estimated_node_spread(seed_node)
    assert abs(estimate - truth) < max(TOLERANCE, 0.12 * truth)
