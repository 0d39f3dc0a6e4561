"""Unit tests for the linear threshold model."""

import numpy as np
import pytest

from repro.diffusion.lt import LinearThreshold, check_lt_validity
from repro.errors import DiffusionError
from repro.graph import generators, weighting
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph


@pytest.fixture
def model():
    return LinearThreshold()


@pytest.fixture
def wc_social():
    topo = generators.preferential_attachment(80, 2, seed=3, directed=False)
    return weighting.weighted_cascade(topo)


class TestValidity:
    def test_weighted_cascade_is_valid(self, wc_social):
        check_lt_validity(wc_social)

    def test_violation_detected(self):
        builder = GraphBuilder(3)
        builder.add_edge(0, 2, 0.8)
        builder.add_edge(1, 2, 0.8)
        with pytest.raises(DiffusionError):
            check_lt_validity(builder.build())

    def test_model_checks_on_use(self, diamond, rng):
        # Diamond node 3 has incoming sum 2.0 — invalid for LT.
        with pytest.raises(DiffusionError):
            LinearThreshold().simulate(diamond, [0], rng)

    def test_validation_can_be_disabled(self, diamond, rng):
        # With validation off the process still runs (sampling clamps at the
        # first chosen edge); this is for power users only.
        model = LinearThreshold(validate=False)
        active = model.simulate(diamond, [0], rng)
        assert active[0]


class TestSimulate:
    def test_certain_path(self, model, path3, rng):
        assert model.simulate(path3, [0], rng).all()

    def test_direction_respected(self, model, path3, rng):
        assert model.simulate(path3, [2], rng).tolist() == [False, False, True]

    def test_probability_honored_statistically(self, model, rng):
        g = generators.path_graph(2, probability=0.3)
        hits = sum(model.simulate(g, [0], rng)[1] for _ in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_fan_in_thresholds(self, model, rng):
        # v2 with two incoming 0.5 edges: seeding both parents always
        # activates it (sum = 1.0 >= threshold, thresholds < 1 a.s.).
        builder = GraphBuilder(3)
        builder.add_edge(0, 2, 0.5)
        builder.add_edge(1, 2, 0.5)
        g = builder.build()
        for _ in range(50):
            assert model.simulate(g, [0, 1], rng)[2]

    def test_spread_on_wc_graph(self, model, wc_social, rng):
        spread = model.spread(wc_social, [0], rng)
        assert 1 <= spread <= wc_social.n


class TestSampleRealization:
    def test_each_node_keeps_at_most_one_edge(self, model, wc_social, rng):
        phi = model.sample_realization(wc_social, rng)
        assert phi.chosen_source.shape == (wc_social.n,)
        # chosen source must actually be an in-neighbor (or -1).
        for v in range(wc_social.n):
            chosen = phi.chosen_source[v]
            if chosen >= 0:
                assert chosen in wc_social.in_neighbors(v)

    def test_certain_path_realization(self, model, path3, rng):
        phi = model.sample_realization(path3, rng)
        assert phi.chosen_source[1] == 0
        assert phi.chosen_source[2] == 1
        assert phi.chosen_source[0] == -1

    def test_selection_frequency(self, model, rng):
        # Node 2 with incoming 0.5/0.5 from nodes 0 and 1: each should be
        # chosen about half the time.
        builder = GraphBuilder(3)
        builder.add_edge(0, 2, 0.5)
        builder.add_edge(1, 2, 0.5)
        g = builder.build()
        picks = [model.sample_realization(g, rng).chosen_source[2] for _ in range(600)]
        fraction_zero = np.mean([p == 0 for p in picks])
        assert 0.4 < fraction_zero < 0.6


class TestReverseSample:
    def test_certain_path_walk(self, model, path3, rng):
        scratch = np.zeros(3, dtype=bool)
        visited = model.reverse_sample(path3, np.array([2]), rng, scratch)
        assert sorted(visited.tolist()) == [0, 1, 2]
        assert not scratch.any()

    def test_walk_is_single_branch(self, model, rng):
        # Node 3 has two incoming certain-ish edges; a reverse walk keeps
        # at most one of them per visit.
        builder = GraphBuilder(4)
        builder.add_edge(0, 3, 0.5)
        builder.add_edge(1, 3, 0.5)
        builder.add_edge(2, 0, 1.0)
        g = builder.build()
        scratch = np.zeros(4, dtype=bool)
        visited = model.reverse_sample(g, np.array([3]), rng, scratch)
        assert 3 in visited
        assert not (0 in visited and 1 in visited)

    def test_multi_root(self, model, two_components, rng):
        scratch = np.zeros(4, dtype=bool)
        visited = model.reverse_sample(two_components, np.array([1, 3]), rng, scratch)
        assert sorted(visited.tolist()) == [0, 1, 2, 3]

    def test_scratch_reset(self, model, wc_social, rng):
        scratch = np.zeros(wc_social.n, dtype=bool)
        for _ in range(20):
            model.reverse_sample(
                wc_social, np.array([rng.integers(wc_social.n)]), rng, scratch
            )
            assert not scratch.any()

    def test_batch_walk_on_edgeless_graph(self, model, rng):
        # A late adaptive round can leave a residual with no edges: every
        # walk stops at its roots, on every backend.
        g = DiGraph.from_edges(5, [])
        roots, roots_indptr = np.array([0, 1, 3]), np.array([0, 2, 3])
        for kernel in ("numpy", "python"):
            members, indptr = model.reverse_sample_batch(
                g, roots, roots_indptr, rng, kernel=kernel
            )
            assert members.tolist() == [0, 1, 3]
            assert indptr.tolist() == [0, 2, 3]
