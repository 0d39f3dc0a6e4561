"""Unit tests for single-root RR sets."""

import pytest

from repro.diffusion.exact import exact_expected_spread
from repro.errors import SamplingError
from repro.graph import generators
from repro.sampling.rr import RRCollection
from repro.testing.reference import RRSampler


class TestRRSampler:
    def test_sets_contain_root(self, ic_model, path3, rng):
        sampler = RRSampler(path3, ic_model, seed=rng)
        for _ in range(10):
            members = sampler.sample()
            assert len(members) >= 1

    def test_empty_graph_rejected(self, ic_model):
        from repro.graph.digraph import DiGraph

        with pytest.raises(SamplingError):
            RRSampler(DiGraph.from_edges(0, []), ic_model)

    def test_sample_into(self, ic_model, path3, rng):
        from repro.sampling.coverage import CoverageIndex

        sampler = RRSampler(path3, ic_model, seed=rng)
        index = CoverageIndex(3)
        sampler.sample_into(index, 25)
        assert len(index) == 25

    def test_negative_count_rejected(self, ic_model, path3, rng):
        from repro.sampling.coverage import CoverageIndex

        sampler = RRSampler(path3, ic_model, seed=rng)
        with pytest.raises(SamplingError):
            sampler.sample_into(CoverageIndex(3), -1)


class TestRRCollection:
    def test_grow_to_idempotent(self, ic_model, path3):
        pool = RRCollection(path3, ic_model, seed=0)
        pool.grow_to(40)
        pool.grow_to(30)
        assert len(pool) == 40

    def test_estimate_requires_sets(self, ic_model, path3):
        pool = RRCollection(path3, ic_model, seed=0)
        with pytest.raises(SamplingError):
            pool.estimated_spread([0])

    def test_unbiased_on_certain_star(self, ic_model):
        # Star with certain edges: hub's spread is exactly n, leaves' is 1.
        g = generators.star_graph(5, probability=1.0)
        pool = RRCollection(g, ic_model, seed=1)
        pool.grow_to(2000)
        assert pool.estimated_spread([0]) == pytest.approx(5.0)
        leaf = pool.estimated_spread([1])
        assert 0.4 < leaf < 1.8  # E = 1, variance from root choice

    def test_estimate_matches_exact_expected_spread(self, ic_model, rng):
        g = generators.paper_example_graph()
        pool = RRCollection(g, ic_model, seed=7)
        pool.grow_to(8000)
        for v in range(4):
            exact = exact_expected_spread(g, ic_model, [v])
            assert pool.estimated_node_spread(v) == pytest.approx(exact, rel=0.12)

    def test_set_estimate_at_least_node_estimate(self, ic_model, small_social):
        pool = RRCollection(small_social, ic_model, seed=3)
        pool.grow_to(500)
        single = pool.estimated_node_spread(0)
        pair = pool.estimated_spread([0, 1])
        assert pair >= single - 1e-9

    def test_lt_model_supported(self, lt_model, path5_half):
        pool = RRCollection(path5_half, lt_model, seed=2)
        pool.grow_to(3000)
        # Chain with p = 0.5: E[I({0})] = 1 + .5 + .25 + .125 + .0625.
        assert pool.estimated_spread([0]) == pytest.approx(1.9375, rel=0.15)
