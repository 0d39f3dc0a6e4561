"""Unit tests for live-edge realizations."""

import itertools

import numpy as np
import pytest

from repro.diffusion.base import normalize_seeds, pack_start_sets
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.diffusion.realization import (
    ICRealization,
    LTRealization,
    Realization,
    batch_reachable_from,
    replay_worlds,
    stack_worlds,
)
from repro.errors import DiffusionError, NodeNotFoundError
from repro.graph import generators
from repro.testing import reference


class TestICRealization:
    def test_all_live(self, path3):
        phi = ICRealization(path3, np.ones(path3.m, dtype=bool))
        assert phi.spread([0]) == 3
        assert phi.is_edge_live(0, 1)

    def test_all_blocked(self, path3):
        phi = ICRealization(path3, np.zeros(path3.m, dtype=bool))
        assert phi.spread([0]) == 1
        assert not phi.is_edge_live(0, 1)

    def test_partial(self, path3):
        # Edges are out-CSR ordered: (0->1), (1->2).  Block the second.
        phi = ICRealization(path3, np.array([True, False]))
        assert phi.reachable_from([0]).tolist() == [True, True, False]

    def test_truncated_spread(self, star6):
        phi = ICRealization(star6, np.ones(star6.m, dtype=bool))
        assert phi.truncated_spread([0], eta=4) == 4
        assert phi.truncated_spread([0], eta=10) == 6

    def test_allowed_mask_blocks_traversal(self, path3):
        phi = ICRealization(path3, np.ones(path3.m, dtype=bool))
        allowed = np.array([True, False, True])
        # Node 1 is off-limits, so the cascade cannot pass through it.
        reached = phi.reachable_from([0], allowed=allowed)
        assert reached.tolist() == [True, False, False]

    def test_seed_outside_allowed_is_inert(self, path3):
        phi = ICRealization(path3, np.ones(path3.m, dtype=bool))
        allowed = np.array([False, True, True])
        reached = phi.reachable_from([0], allowed=allowed)
        assert not reached.any()

    def test_bad_mask_shape(self, path3):
        with pytest.raises(ValueError):
            ICRealization(path3, np.ones(5, dtype=bool))

    def test_bad_seed(self, path3):
        phi = ICRealization(path3, np.ones(path3.m, dtype=bool))
        with pytest.raises(NodeNotFoundError):
            phi.spread([42])

    def test_live_edge_count(self, path3):
        phi = ICRealization(path3, np.array([True, False]))
        assert phi.live_edge_count() == 1


class TestLTRealization:
    def test_chain_choices(self, path3):
        phi = LTRealization(path3, np.array([-1, 0, 1]))
        assert phi.spread([0]) == 3
        assert phi.is_edge_live(0, 1)
        assert not phi.is_edge_live(1, 0)

    def test_no_choice_blocks(self, path3):
        phi = LTRealization(path3, np.array([-1, -1, 1]))
        assert phi.reachable_from([0]).tolist() == [True, False, False]

    def test_allowed_mask(self, path3):
        phi = LTRealization(path3, np.array([-1, 0, 1]))
        allowed = np.array([True, False, True])
        assert phi.reachable_from([0], allowed=allowed).tolist() == [True, False, False]

    def test_truncated_spread(self, path3):
        phi = LTRealization(path3, np.array([-1, 0, 1]))
        assert phi.truncated_spread([0], eta=2) == 2

    def test_bad_shape(self, path3):
        with pytest.raises(ValueError):
            LTRealization(path3, np.array([-1, 0]))

    def test_live_edge_count(self, path3):
        phi = LTRealization(path3, np.array([-1, 0, -1]))
        assert phi.live_edge_count() == 1

    def test_branching_structure(self):
        # Star: hub 0 -> leaves; each leaf chose the hub.
        g = generators.star_graph(4, probability=1.0)
        phi = LTRealization(g, np.array([-1, 0, 0, 0]))
        assert phi.spread([0]) == 4
        assert phi.spread([1]) == 1


class TestBatchReachableFrom:
    def _graph(self):
        from repro.graph import generators, weighting

        return weighting.scaled_cascade(
            generators.preferential_attachment(150, 2, seed=9, directed=False), 0.6
        )

    @staticmethod
    def _replay(phis, world_of, seeds_per, allowed, kernel):
        """Activation rows of ``world_of`` jobs, through replay_worlds."""
        graph = phis[0].graph
        kind, worlds = stack_worlds(phis)
        starts = [normalize_seeds(graph, s) for s in seeds_per]
        if allowed is not None:
            starts = [s[allowed[j, s]] for j, s in enumerate(starts)]
        members, indptr = replay_worlds(
            graph,
            kind,
            worlds,
            world_of,
            *pack_start_sets(starts),
            allowed=None if allowed is None else allowed.reshape(-1),
            kernel=kernel,
        )
        rows = np.zeros((len(world_of), graph.n), dtype=bool)
        for j in range(len(world_of)):
            rows[j, members[indptr[j]:indptr[j + 1]]] = True
        return rows

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_matches_per_session_loop(self, model_fixture, request):
        # The grid: no mask and a partial mask; the identity world map
        # (observation's shape, through batch_reachable_from) and a map with
        # repeats (the CRN shape, through replay_worlds); two backends.
        model = request.getfixturevalue(model_fixture)
        graph = self._graph()
        phis = [model.sample_realization(graph, seed=i) for i in range(5)]
        grid = itertools.product(
            (False, True), ("identity", "repeats"), ("numpy", "python")
        )
        for masked, world_map, kernel in grid:
            if world_map == "identity":
                world_of = np.arange(5)
            else:
                world_of = np.array([0, 3, 3, 1, 0, 4, 4])
            jobs = len(world_of)
            seeds_per = [[j, (7 * j + 3) % graph.n] for j in range(jobs)]
            allowed = None
            if masked:
                allowed = np.ones((jobs, graph.n), dtype=bool)
                allowed[:, ::3] = False
                allowed[0] = True  # one unrestricted job in the batch
            if world_map == "identity":
                got = batch_reachable_from(phis, seeds_per, allowed, kernel=kernel)
            else:
                got = self._replay(phis, world_of, seeds_per, allowed, kernel)
            for j, w in enumerate(world_of):
                expected = reference.reachable_from(
                    phis[w], seeds_per[j], None if allowed is None else allowed[j]
                )
                assert np.array_equal(got[j], expected), (
                    masked, world_map, kernel, j,
                )

    def test_mixed_models_rejected(self, ic_model, lt_model):
        graph = self._graph()
        phis = [
            ic_model.sample_realization(graph, seed=0),
            lt_model.sample_realization(graph, seed=1),
        ]
        with pytest.raises(DiffusionError):
            batch_reachable_from(phis, [[0], [1]])

    def test_foreign_realization_type_rejected(self):
        class OtherRealization(Realization):
            def is_edge_live(self, u, v):
                return False

        class ForeignModel(IndependentCascade):
            def sample_realization(self, graph, seed=None):
                return OtherRealization(graph)

        graph = self._graph()
        with pytest.raises(DiffusionError):
            batch_reachable_from([OtherRealization(graph)], [[0]])

        with pytest.raises(DiffusionError):
            CRNSpreadEvaluator(graph, ForeignModel(), n_sims=2, seed=0)

    def test_validation_errors(self, ic_model):
        graph = self._graph()
        other = generators.path_graph(3)
        phi = ic_model.sample_realization(graph, seed=0)
        with pytest.raises(DiffusionError):
            batch_reachable_from([], [])
        with pytest.raises(DiffusionError):
            batch_reachable_from([phi], [[0], [1]])
        with pytest.raises(DiffusionError):
            batch_reachable_from(
                [phi, ic_model.sample_realization(other, seed=1)], [[0], [0]]
            )
        with pytest.raises(DiffusionError):
            batch_reachable_from([phi], [[0]], allowed=np.ones((2, 2), dtype=bool))

    def test_out_of_range_seed_raises(self, ic_model):
        graph = self._graph()
        phi = ic_model.sample_realization(graph, seed=0)
        with pytest.raises(NodeNotFoundError):
            batch_reachable_from([phi], [[graph.n]])
