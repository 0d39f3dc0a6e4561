"""Unit tests for exact enumeration (the ground-truth oracle)."""

import pytest

from repro.diffusion.exact import (
    enumerate_ic_realizations,
    enumerate_lt_realizations,
    enumerate_realizations,
    exact_expected_spread,
    exact_expected_truncated_spread,
)
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.graph.builder import GraphBuilder
from repro.testing import reference


class TestEnumerationIC:
    def test_probabilities_sum_to_one(self, paper_example, ic_model):
        total = sum(p for _, p in enumerate_ic_realizations(paper_example))
        assert total == pytest.approx(1.0)

    def test_world_count(self, path3):
        # Certain edges: only one world has positive probability.
        worlds = list(enumerate_ic_realizations(path3))
        assert len(worlds) == 1

    def test_half_probability_edge_gives_two_worlds(self):
        g = generators.path_graph(2, probability=0.5)
        worlds = list(enumerate_ic_realizations(g))
        assert len(worlds) == 2
        assert all(p == pytest.approx(0.5) for _, p in worlds)

    def test_too_many_edges_rejected(self):
        g = generators.complete_graph(6)  # 30 edges
        with pytest.raises(ConfigurationError):
            list(enumerate_ic_realizations(g))


class TestEnumerationLT:
    def test_probabilities_sum_to_one(self, path5_half):
        total = sum(p for _, p in enumerate_lt_realizations(path5_half))
        assert total == pytest.approx(1.0)

    def test_chain_world_count(self, path5_half):
        # Each of nodes 1..4 keeps its single in-edge or not: 2^4 worlds.
        worlds = list(enumerate_lt_realizations(path5_half))
        assert len(worlds) == 16


class TestExactValues:
    def test_paper_example_vanilla_spreads(self, paper_example, ic_model):
        # Example 2.3: E[I(v1)] = 2.75 dominates all others.
        spreads = [
            exact_expected_spread(paper_example, ic_model, [v]) for v in range(4)
        ]
        assert spreads[0] == pytest.approx(2.75)
        assert spreads[1] == pytest.approx(2.0)
        assert spreads[2] == pytest.approx(2.0)
        assert spreads[3] == pytest.approx(1.0)

    def test_paper_example_truncated_spreads(self, paper_example, ic_model):
        # Example 2.3's punchline: truncation flips the winner to v2/v3.
        truncated = [
            exact_expected_truncated_spread(paper_example, ic_model, [v], eta=2)
            for v in range(4)
        ]
        assert truncated[0] == pytest.approx(1.75)
        assert truncated[1] == pytest.approx(2.0)
        assert truncated[2] == pytest.approx(2.0)
        assert truncated[3] == pytest.approx(1.0)

    def test_seed_set_spread(self, paper_example, ic_model):
        value = exact_expected_spread(paper_example, ic_model, [1, 2])
        assert value == pytest.approx(3.0)  # v2, v3 and v4 always

    def test_truncated_never_exceeds_vanilla(self, ic_model, path5_half):
        for v in range(5):
            vanilla = exact_expected_spread(path5_half, ic_model, [v])
            truncated = exact_expected_truncated_spread(path5_half, ic_model, [v], eta=2)
            assert truncated <= vanilla + 1e-12

    def test_lt_exact_chain(self, lt_model):
        g = generators.path_graph(3, probability=0.5)
        # E[I({0})] = 1 + 0.5 + 0.25 = 1.75 under LT live-edge too.
        assert exact_expected_spread(g, lt_model, [0]) == pytest.approx(1.75)

    def test_matches_monte_carlo(self, ic_model, paper_example, rng):
        from repro.diffusion.montecarlo import estimate_spread

        exact = exact_expected_spread(paper_example, ic_model, [0])
        mc = estimate_spread(paper_example, ic_model, [0], samples=4000, seed=rng)
        assert mc.mean == pytest.approx(exact, abs=0.1)

    def test_invalid_eta(self, paper_example, ic_model):
        with pytest.raises(ConfigurationError):
            exact_expected_truncated_spread(paper_example, ic_model, [0], eta=0)

    def test_unknown_model_rejected(self, paper_example):
        class FakeModel:
            pass

        with pytest.raises(ConfigurationError):
            exact_expected_spread(paper_example, FakeModel(), [0])


class TestBatchedReplay:
    """The chunked replay sums exactly like one BFS per world."""

    @pytest.mark.parametrize("graph_fixture", ["paper_example", "path5_half"])
    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_equals_per_world_reference_sum(
        self, graph_fixture, model_fixture, request
    ):
        graph = request.getfixturevalue(graph_fixture)
        model = request.getfixturevalue(model_fixture)
        for seeds in ([0], [1, 3], []):
            sizes = [
                (int(reference.reachable_from(phi, seeds).sum()), p)
                for phi, p in enumerate_realizations(graph, model)
            ]
            assert exact_expected_spread(graph, model, seeds) == sum(
                size * p for size, p in sizes
            )
            assert exact_expected_truncated_spread(
                graph, model, seeds, eta=2
            ) == sum(min(size, 2) * p for size, p in sizes)

    def test_spans_several_chunks(self, monkeypatch, ic_model):
        from repro.diffusion import exact

        graph = generators.path_graph(6, probability=0.5)
        whole = exact_expected_spread(graph, ic_model, [0])
        monkeypatch.setattr(exact, "_REPLAY_CHUNK", 3)  # 32 worlds, 11 chunks
        assert exact_expected_spread(graph, ic_model, [0]) == whole

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_edgeless_graph_has_one_world(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        graph = GraphBuilder(2).build()
        worlds = list(enumerate_realizations(graph, model))
        assert [p for _, p in worlds] == [1.0]
        assert exact_expected_spread(graph, model, [0]) == 1.0
