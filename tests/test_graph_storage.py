"""Dtype-adaptive compact graph storage: decisions and bit-equivalence.

The compact layout (int32 CSR indices/indptr when ``n`` and ``m`` fit,
float32 probabilities when the downcast is lossless) must be numerically
indistinguishable from the wide int64/float64 reference: every consumer
promotes exactly.  These tests pin the dtype decision rules, the
int32-vs-int64 equivalence across the full sampling/simulation stack, and
the shared-memory round-trip of compact graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ASTI, IndependentCascade, LinearThreshold
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.errors import GraphError
from repro.graph import generators, weighting
from repro.graph.digraph import DiGraph, csr_index_dtype, csr_prob_dtype
from repro.parallel.shm import graph_from_handle, share_graph
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.sampling.mrr import RootCountRule


@pytest.fixture(params=["IC", "LT"])
def model(request):
    return IndependentCascade() if request.param == "IC" else LinearThreshold()


@pytest.fixture
def wc_graph():
    """Weighted-cascade probabilities (1/indeg): float32-ineligible."""
    topology = generators.preferential_attachment(150, 3, seed=7, directed=False)
    return weighting.weighted_cascade(topology)


@pytest.fixture
def exact_graph():
    """Power-of-two weights: fully compact-eligible (int32 + float32).

    ``p(u, v) = 1 / 2^ceil(log2 indeg(v))`` — every value is a dyadic
    rational (lossless in float32) and incoming sums stay <= 1, so the
    graph is valid for LT as well.
    """
    topology = generators.preferential_attachment(150, 3, seed=7, directed=False)
    src, dst, _ = topology.edge_arrays()
    indeg = np.maximum(topology.in_degrees(), 1)
    pow2 = np.exp2(np.ceil(np.log2(indeg)))
    return DiGraph.from_arrays(topology.n, src, dst, 1.0 / pow2[dst])


class TestDtypeDecision:
    def test_index_dtype_boundary(self):
        limit = np.iinfo(np.int32).max
        assert csr_index_dtype(100, 100) == np.int32
        assert csr_index_dtype(limit - 1, limit) == np.int32
        # Straddling the boundary: one count over the int32 range flips
        # the whole layout to int64.
        assert csr_index_dtype(limit, 10) == np.int64
        assert csr_index_dtype(10, limit + 1) == np.int64

    def test_prob_dtype_lossless_rule(self):
        assert csr_prob_dtype(np.asarray([0.5, 0.25, 1.0])) == np.float32
        # 1/3 does not survive a float32 round-trip.
        assert csr_prob_dtype(np.asarray([1.0 / 3.0])) == np.float64
        assert csr_prob_dtype(np.asarray([0.1])) == np.float64

    def test_adaptive_graph_dtypes(self, wc_graph, exact_graph):
        assert wc_graph.index_dtype == np.int32
        assert wc_graph.prob_dtype == np.float64
        assert exact_graph.index_dtype == np.int32
        assert exact_graph.prob_dtype == np.float32

    def test_wide_storage_pins_reference_layout(self, exact_graph):
        wide = exact_graph.with_storage("wide")
        assert wide.index_dtype == np.int64
        assert wide.prob_dtype == np.float64
        assert wide == exact_graph  # topology + probabilities identical
        # Round-trip back to adaptive restores the compact layout.
        again = wide.with_storage("adaptive")
        assert again.index_dtype == np.int32
        assert again.prob_dtype == np.float32

    def test_compact_halves_csr_bytes_when_fully_eligible(self, exact_graph):
        wide = exact_graph.with_storage("wide")
        assert exact_graph.csr_nbytes * 2 == wide.csr_nbytes

    def test_invalid_storage_policy_rejected(self, exact_graph):
        with pytest.raises(GraphError, match="storage"):
            exact_graph.with_storage("narrow")
        with pytest.raises(GraphError, match="storage"):
            DiGraph.from_edges(2, [(0, 1, 0.5)], storage="packed")

    def test_storage_policy_inherited_by_derived_graphs(self, exact_graph):
        wide = exact_graph.with_storage("wide")
        keep = np.ones(wide.n, dtype=bool)
        keep[:10] = False
        sub_wide, _ = wide.induced_subgraph(keep)
        assert sub_wide.storage == "wide"
        assert sub_wide.index_dtype == np.int64
        assert sub_wide.prob_dtype == np.float64
        sub_compact, _ = exact_graph.induced_subgraph(keep)
        assert sub_compact.storage == "adaptive"
        assert sub_compact.index_dtype == np.int32
        assert wide.reverse().storage == "wide"
        assert wide.with_probabilities(lambda u, v: 0.5).storage == "wide"

    def test_edge_arrays_export_is_canonical(self, exact_graph):
        src, dst, probs = exact_graph.edge_arrays()
        assert src.dtype == np.int64
        assert dst.dtype == np.int64
        assert probs.dtype == np.float64


class TestBitEquivalence:
    """Compact vs wide storage: identical draws everywhere."""

    def graphs(self, graph):
        return graph, graph.with_storage("wide")

    def test_realizations_identical(self, model, exact_graph):
        compact, wide = self.graphs(exact_graph)
        phi_c = model.sample_realization(compact, np.random.default_rng(3))
        phi_w = type(model)().sample_realization(wide, np.random.default_rng(3))
        if hasattr(phi_c, "live_edges"):
            assert np.array_equal(phi_c.live_edges, phi_w.live_edges)
        else:
            assert np.array_equal(phi_c.chosen_source, phi_w.chosen_source)

    def test_mrr_pools_identical(self, model, exact_graph):
        compact, wide = self.graphs(exact_graph)
        pools = []
        for graph in (compact, wide):
            rule = RootCountRule.for_target(graph.n, 15)
            engine = mrr_batch_sampler(
                graph, type(model)(), rule, seed=17,
                context=ExecutionContext(sample_batch_size=64),
            )
            index = CoverageIndex(graph.n)
            engine.fill(index, 500)
            pools.append(index.packed())
        assert np.array_equal(pools[0][0], pools[1][0])
        assert np.array_equal(pools[0][1], pools[1][1])

    def test_simulate_batch_identical(self, model, exact_graph):
        compact, wide = self.graphs(exact_graph)
        members_c, indptr_c = model.simulate_batch(
            compact, [0, 2], 50, seed=23
        )
        members_w, indptr_w = type(model)().simulate_batch(
            wide, [0, 2], 50, seed=23
        )
        assert np.array_equal(members_c, members_w)
        assert np.array_equal(indptr_c, indptr_w)

    def test_crn_estimates_identical(self, model, exact_graph):
        compact, wide = self.graphs(exact_graph)
        candidates = [[v] for v in range(10)]
        values_c = CRNSpreadEvaluator(
            compact, model, n_sims=30, seed=5
        ).evaluate_many(candidates)
        values_w = CRNSpreadEvaluator(
            wide, type(model)(), n_sims=30, seed=5
        ).evaluate_many(candidates)
        assert np.array_equal(values_c, values_w)

    def test_adaptive_seed_sets_identical(self, model, exact_graph):
        compact, wide = self.graphs(exact_graph)
        run_c = ASTI(model, epsilon=0.5, max_samples=4000).run(
            compact, eta=15, seed=31
        )
        run_w = ASTI(type(model)(), epsilon=0.5, max_samples=4000).run(
            wide, eta=15, seed=31
        )
        assert run_c.seeds == run_w.seeds
        assert run_c.spread == run_w.spread
        assert run_c.marginal_spreads == run_w.marginal_spreads

    def test_wc_graph_pipeline_identical(self, model, wc_graph):
        """Index-only compaction (float64 probs) is equivalent too."""
        compact, wide = self.graphs(wc_graph)
        run_c = ASTI(model, epsilon=0.5, max_samples=4000).run(
            compact, eta=12, seed=13
        )
        run_w = ASTI(type(model)(), epsilon=0.5, max_samples=4000).run(
            wide, eta=12, seed=13
        )
        assert run_c.seeds == run_w.seeds


class TestSharedMemoryRoundTrip:
    def test_compact_graph_survives_shm_round_trip(self, exact_graph):
        bundle, handle = share_graph(exact_graph)
        try:
            rebuilt = graph_from_handle(handle)
            assert rebuilt.index_dtype == np.int32
            assert rebuilt.prob_dtype == np.float32
            assert rebuilt == exact_graph
        finally:
            bundle.close()

    def test_segment_bytes_track_storage(self, exact_graph):
        compact_bundle, _ = share_graph(exact_graph)
        wide_bundle, _ = share_graph(exact_graph.with_storage("wide"))
        try:
            assert compact_bundle.nbytes < 0.55 * wide_bundle.nbytes + 1
        finally:
            compact_bundle.close()
            wide_bundle.close()


class TestCoveragePacking:
    def test_members_stored_compact(self):
        index = CoverageIndex(1000)
        index.add(np.asarray([1, 5, 7], dtype=np.int64))
        members, indptr = index.packed()
        assert members.dtype == np.int32
        assert indptr.dtype == np.int64  # pool sizes may exceed int32
        assert members.tolist() == [1, 5, 7]

    def test_compact_members_keep_coverage_semantics(self):
        index = CoverageIndex(50)
        index.add_batch(
            np.asarray([2, 3, 2, 4], dtype=np.int64),
            np.asarray([0, 2, 4], dtype=np.int64),
        )
        assert index.coverage_of(2) == 2
        assert index.coverage_of_set([3, 4]) == 2
        node, coverage = index.argmax_node()
        assert (node, coverage) == (2, 2)
