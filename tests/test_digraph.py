"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.errors import EdgeError, GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph, gather_csr_rows, nodes_reachable_from


def make_triangle():
    return DiGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)])


class TestConstruction:
    def test_from_edges_counts(self):
        g = make_triangle()
        assert g.n == 3
        assert g.m == 3

    def test_empty_graph(self):
        g = DiGraph.from_edges(4, [])
        assert g.n == 4
        assert g.m == 0
        assert g.out_degree(3) == 0

    def test_zero_node_graph(self):
        g = DiGraph.from_edges(0, [])
        assert g.n == 0
        assert len(g) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph.from_edges(2, [(0, 0, 0.5)])

    def test_out_of_range_source_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph.from_edges(2, [(2, 0, 0.5)])

    def test_out_of_range_target_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph.from_edges(2, [(0, 5, 0.5)])

    def test_zero_probability_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph.from_edges(2, [(0, 1, 0.0)])

    def test_probability_above_one_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph.from_edges(2, [(0, 1, 1.5)])

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected(self, p):
        # NaN fails both range comparisons, so only an "all in range" check
        # catches it.
        with pytest.raises(EdgeError, match=r"\(0, 1\]"):
            DiGraph.from_edges(2, [(0, 1, p)])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph.from_arrays(
                3,
                np.array([0, 1]),
                np.array([1]),
                np.array([0.5]),
            )

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(
                -1,
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0),
            )


class TestAccessors:
    def test_degrees(self):
        g = make_triangle()
        assert g.out_degree(0) == 1
        assert g.in_degree(0) == 1
        assert list(g.out_degrees()) == [1, 1, 1]
        assert list(g.in_degrees()) == [1, 1, 1]

    def test_neighbors(self):
        g = make_triangle()
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.in_neighbors(0)) == [2]

    def test_probabilities_aligned(self):
        g = make_triangle()
        assert g.out_probabilities(1)[0] == pytest.approx(0.25)
        assert g.in_probabilities(2)[0] == pytest.approx(0.25)

    def test_node_out_of_range(self):
        g = make_triangle()
        with pytest.raises(NodeNotFoundError):
            g.out_degree(3)
        with pytest.raises(NodeNotFoundError):
            g.in_neighbors(-1)

    def test_has_edge(self):
        g = make_triangle()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_probability(self):
        g = make_triangle()
        assert g.edge_probability(2, 0) == pytest.approx(1.0)
        with pytest.raises(EdgeError):
            g.edge_probability(0, 2)

    def test_edge_probability_validates_both_endpoints(self):
        # An out-of-range target must surface as NodeNotFoundError (like
        # has_edge), not a misleading "edge does not exist" EdgeError.
        g = make_triangle()
        with pytest.raises(NodeNotFoundError):
            g.edge_probability(0, 3)
        with pytest.raises(NodeNotFoundError):
            g.edge_probability(0, -1)
        with pytest.raises(NodeNotFoundError):
            g.edge_probability(3, 0)

    def test_edges_iteration_matches_arrays(self):
        g = make_triangle()
        listed = sorted(g.edges())
        src, dst, probs = g.edge_arrays()
        from_arrays = sorted(zip(src.tolist(), dst.tolist(), probs.tolist()))
        assert listed == from_arrays

    def test_multi_out_neighbors_grouped(self):
        g = DiGraph.from_edges(4, [(0, 2, 0.1), (0, 1, 0.2), (0, 3, 0.3)])
        assert set(g.out_neighbors(0).tolist()) == {1, 2, 3}
        assert g.out_degree(0) == 3


class TestTransforms:
    def test_reverse_swaps_directions(self):
        g = make_triangle()
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert not r.has_edge(0, 1)
        assert r.m == g.m

    def test_reverse_twice_is_identity(self):
        g = make_triangle()
        assert g.reverse().reverse() == g

    def test_with_probabilities(self):
        g = make_triangle()
        g2 = g.with_probabilities(lambda u, v: 0.9)
        assert g2.edge_probability(0, 1) == pytest.approx(0.9)
        assert g2.m == g.m

    def test_induced_subgraph_drops_edges(self):
        g = make_triangle()
        keep = np.array([True, True, False])
        sub, ids = g.induced_subgraph(keep)
        assert sub.n == 2
        assert sub.m == 1  # only 0 -> 1 survives
        assert list(ids) == [0, 1]

    def test_induced_subgraph_renumbers(self):
        g = DiGraph.from_edges(4, [(1, 3, 0.5)])
        keep = np.array([False, True, False, True])
        sub, ids = g.induced_subgraph(keep)
        assert sub.n == 2
        assert sub.has_edge(0, 1)
        assert list(ids) == [1, 3]

    def test_induced_subgraph_bad_mask_shape(self):
        g = make_triangle()
        with pytest.raises(GraphError):
            g.induced_subgraph(np.array([True, False]))

    def test_equality(self):
        assert make_triangle() == make_triangle()
        other = DiGraph.from_edges(3, [(0, 1, 0.5)])
        assert make_triangle() != other


class TestGatherCsrRows:
    def test_concatenates_rows_in_order(self):
        g = DiGraph.from_edges(4, [(0, 1, 0.5), (0, 2, 0.5), (2, 3, 0.5)])
        indptr, targets, _ = g.out_csr
        positions = gather_csr_rows(indptr, np.array([0, 2]))
        assert sorted(targets[positions].tolist()) == [1, 2, 3]

    def test_empty_rows(self):
        g = DiGraph.from_edges(3, [(0, 1, 0.5)])
        indptr, _, _ = g.out_csr
        assert len(gather_csr_rows(indptr, np.array([1, 2]))) == 0

    def test_no_nodes(self):
        g = DiGraph.from_edges(3, [(0, 1, 0.5)])
        indptr, _, _ = g.out_csr
        assert len(gather_csr_rows(indptr, np.array([], dtype=np.int64))) == 0


class TestReachability:
    def test_simple_path(self, path3):
        mask = nodes_reachable_from(path3, [0])
        assert mask.all()

    def test_respects_direction(self, path3):
        mask = nodes_reachable_from(path3, [2])
        assert mask.tolist() == [False, False, True]

    def test_multiple_sources(self, two_components):
        mask = nodes_reachable_from(two_components, [0, 2])
        assert mask.all()

    def test_invalid_source(self, path3):
        with pytest.raises(NodeNotFoundError):
            nodes_reachable_from(path3, [9])


class TestRelabeled:
    def big_graph(self):
        from repro.graph import generators, weighting

        return weighting.weighted_cascade(
            generators.preferential_attachment(200, 3, seed=2, directed=False)
        )

    def test_default_order_is_degree_descending(self):
        graph = self.big_graph()
        relabeled, order = graph.relabeled()
        degrees = relabeled.in_degrees() + relabeled.out_degrees()
        assert np.all(degrees[:-1] >= degrees[1:])
        # order[new_id] = old_id matches the analysis helper exactly.
        from repro.graph.analysis import degree_order

        assert np.array_equal(order, degree_order(graph))

    def test_isomorphic_edges(self):
        graph = self.big_graph()
        relabeled, order = graph.relabeled()
        inverse = np.argsort(order)
        src, dst, probs = graph.edge_arrays()
        rsrc, rdst, rprobs = relabeled.edge_arrays()
        expected = sorted(zip(inverse[src], inverse[dst], probs))
        actual = sorted(zip(rsrc, rdst, rprobs))
        assert expected == actual

    def test_inverse_mapping_round_trip(self):
        """Relabeling by the inverse permutation recovers original ids."""
        graph = self.big_graph()
        relabeled, order = graph.relabeled()
        inverse = np.argsort(order)
        # relabeled ids map back: order[new_id] = old_id, so relabeling
        # the relabeled graph by `inverse` (as its order) restores the
        # original numbering exactly.
        restored, _ = relabeled.relabeled(inverse)
        assert restored == graph

    def test_explicit_order(self, path3):
        order = np.array([2, 1, 0])
        relabeled, returned = path3.relabeled(order)
        assert np.array_equal(returned, order)
        # Old edge 0 -> 1 becomes 2 -> 1; old 1 -> 2 becomes 1 -> 0.
        assert relabeled.has_edge(2, 1) and relabeled.has_edge(1, 0)

    def test_storage_policy_inherited(self):
        graph = self.big_graph()
        wide = graph.with_storage("wide")
        relabeled, _ = wide.relabeled()
        assert relabeled.storage == "wide"

    def test_rejects_non_permutation(self, path3):
        with pytest.raises(GraphError):
            path3.relabeled(np.zeros(3, dtype=np.int64))
        with pytest.raises(GraphError):
            path3.relabeled(np.arange(2))


class TestDegreeOrder:
    def test_direction_variants(self):
        from repro.graph.analysis import degree_order

        g = DiGraph.from_edges(
            3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)]
        )
        assert degree_order(g, "out").tolist()[0] == 0
        assert degree_order(g, "in").tolist()[0] == 2
        with pytest.raises(ValueError):
            degree_order(g, "sideways")

    def test_ties_break_by_id(self, path3):
        from repro.graph.analysis import degree_order

        # path 0 -> 1 -> 2: total degrees are 1, 2, 1; ties ascending id.
        assert degree_order(path3).tolist() == [1, 0, 2]
