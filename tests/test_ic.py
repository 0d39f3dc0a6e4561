"""Unit tests for the independent cascade model."""

import numpy as np
import pytest

from repro.diffusion.ic import IndependentCascade
from repro.graph import generators
from repro.testing import reference


@pytest.fixture
def model():
    return IndependentCascade()


class TestSimulate:
    def test_certain_path_activates_everything(self, model, path3, rng):
        active = reference.simulate(model, path3, [0], rng)
        assert active.all()

    def test_direction_respected(self, model, path3, rng):
        active = reference.simulate(model, path3, [2], rng)
        assert active.tolist() == [False, False, True]

    def test_seeds_always_active(self, model, path5_half, rng):
        active = reference.simulate(model, path5_half, [2], rng)
        assert active[2]

    def test_multiple_seeds(self, model, two_components, rng):
        active = reference.simulate(model, two_components, [0, 2], rng)
        assert active.all()

    def test_invalid_seed(self, model, path3, rng):
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            reference.simulate(model, path3, [99], rng)

    def test_probability_honored_statistically(self, model, rng):
        # Single edge with p = 0.3: activation frequency should match.
        g = generators.path_graph(2, probability=0.3)
        hits = sum(reference.simulate(model, g, [0], rng)[1] for _ in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_spread_helper(self, model, star6, rng):
        assert reference.spread(model, star6, [0], rng) == 6


class TestSampleRealization:
    def test_certain_edges_always_live(self, model, path3, rng):
        phi = model.sample_realization(path3, rng)
        assert phi.live_edge_count() == 2

    def test_live_fraction_matches_probability(self, model, rng):
        g = generators.complete_graph(20, probability=0.25)
        counts = [
            model.sample_realization(g, rng).live_edge_count() for _ in range(50)
        ]
        fraction = np.mean(counts) / g.m
        assert 0.2 < fraction < 0.3

    def test_realization_replay_deterministic(self, model, path5_half, rng):
        phi = model.sample_realization(path5_half, rng)
        first = phi.reachable_from([0])
        second = phi.reachable_from([0])
        assert np.array_equal(first, second)


class TestReverseSample:
    def test_visits_reach_root_only(self, model, path3, rng):
        scratch = np.zeros(3, dtype=bool)
        visited = reference.reverse_sample(model, path3, np.array([2]), rng, scratch)
        # Certain path: everything reaches node 2.
        assert sorted(visited.tolist()) == [0, 1, 2]
        assert not scratch.any()  # buffer restored

    def test_respects_direction(self, model, path3, rng):
        scratch = np.zeros(3, dtype=bool)
        visited = reference.reverse_sample(model, path3, np.array([0]), rng, scratch)
        assert visited.tolist() == [0]

    def test_multi_root_union(self, model, two_components, rng):
        scratch = np.zeros(4, dtype=bool)
        visited = reference.reverse_sample(
            model, two_components, np.array([1, 3]), rng, scratch
        )
        assert sorted(visited.tolist()) == [0, 1, 2, 3]

    def test_rr_set_unbiasedness_on_tiny_graph(self, model, rng):
        # For the certain star, a random RR set from a uniform root contains
        # the hub with probability 1, so the estimated spread of {hub} is n.
        g = generators.star_graph(4, probability=1.0)
        scratch = np.zeros(4, dtype=bool)
        hits = 0
        trials = 400
        for _ in range(trials):
            root = np.array([rng.integers(4)])
            visited = reference.reverse_sample(model, g, root, rng, scratch)
            hits += 0 in visited
        assert hits == trials

    def test_scratch_reset_after_each_call(self, model, small_social, rng):
        scratch = np.zeros(small_social.n, dtype=bool)
        for _ in range(20):
            reference.reverse_sample(
                model,
                small_social,
                np.array([rng.integers(small_social.n)]),
                rng,
                scratch,
            )
            assert not scratch.any()
