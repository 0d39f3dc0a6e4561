"""Tests for the batched forward-simulation engine and the CRN evaluator.

Covers the three contracts the forward engine makes:

* seed validation is identical across IC, LT, and the topic-aware model
  (out-of-range ids raise :class:`NodeNotFoundError`, duplicates dedup);
* ``simulate_batch`` agrees with the per-cascade loop of
  :mod:`repro.testing.reference` —
  bit-deterministic under a fixed seed, distributionally on aggregates;
* the chunked estimators early-stop on the CI tolerance but never before
  the first chunk, and the common-random-number evaluator scores every
  candidate on identical noise.
"""

import numpy as np
import pytest

from repro.diffusion.base import normalize_seeds
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import (
    CRNSpreadEvaluator,
    estimate_spread,
    estimate_spreads_many,
)
from repro.diffusion.topic import TopicAwareGraph, TopicAwareIC, TopicMixture
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.testing import reference


@pytest.fixture(params=["IC", "LT", "TIC"])
def model_and_graph(request):
    """Each diffusion model with a compatible ~60-node graph."""
    topology = generators.preferential_attachment(60, 2, seed=5, directed=False)
    graph = weighting.weighted_cascade(topology)
    if request.param == "IC":
        return IndependentCascade(), graph
    if request.param == "LT":
        return LinearThreshold(), graph
    taw = TopicAwareGraph.random(topology, num_topics=3, seed=11)
    model, collapsed = TopicAwareIC.for_item(taw, TopicMixture.uniform(3))
    return model, collapsed


class TestSeedValidation:
    """Satellite: identical seed handling across all three models."""

    @pytest.mark.parametrize("bad_seed", [-1, 60, 10_000])
    def test_simulate_rejects_out_of_range(self, model_and_graph, bad_seed):
        model, graph = model_and_graph
        with pytest.raises(NodeNotFoundError):
            reference.simulate(model, graph, [0, bad_seed], seed=0)

    @pytest.mark.parametrize("bad_seed", [-1, 60, 10_000])
    def test_simulate_batch_rejects_out_of_range(self, model_and_graph, bad_seed):
        model, graph = model_and_graph
        with pytest.raises(NodeNotFoundError):
            model.simulate_batch(graph, [bad_seed], 4, seed=0)

    def test_base_class_simulate_validates(self, model_and_graph):
        # The scalar loop that was the base-class fallback validates too.
        model, graph = model_and_graph
        with pytest.raises(NodeNotFoundError):
            reference.simulate_batch(model, graph, [graph.n], 1, seed=0)

    def test_duplicates_are_deduplicated(self, model_and_graph):
        model, graph = model_and_graph
        members, indptr = model.simulate_batch(graph, [3, 3, 3], 6, seed=1)
        for i in range(6):
            sample = members[indptr[i] : indptr[i + 1]]
            assert (sample == 3).sum() == 1  # seeded once, not thrice
            assert len(np.unique(sample)) == len(sample)

    def test_normalize_seeds_sorts_and_dedups(self, model_and_graph):
        _, graph = model_and_graph
        assert normalize_seeds(graph, [5, 1, 5, 2]).tolist() == [1, 2, 5]
        assert normalize_seeds(graph, []).tolist() == []


class TestSimulateBatch:
    def test_fixed_seed_determinism(self, model_and_graph):
        model, graph = model_and_graph
        a = model.simulate_batch(graph, [0, 7], 40, seed=123)
        b = model.simulate_batch(graph, [0, 7], 40, seed=123)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_packed_shape_invariants(self, model_and_graph):
        model, graph = model_and_graph
        members, indptr = model.simulate_batch(graph, [0, 7], 25, seed=2)
        assert len(indptr) == 26 and indptr[0] == 0
        assert (np.diff(indptr) >= 2).all()  # both seeds active in every sim
        assert members.min() >= 0 and members.max() < graph.n
        for i in range(25):
            sample = members[indptr[i] : indptr[i + 1]]
            assert 0 in sample and 7 in sample

    def test_zero_sims(self, model_and_graph):
        model, graph = model_and_graph
        members, indptr = model.simulate_batch(graph, [0], 0, seed=0)
        assert len(members) == 0 and indptr.tolist() == [0]

    def test_negative_sims_rejected(self, model_and_graph):
        model, graph = model_and_graph
        with pytest.raises(ConfigurationError):
            model.simulate_batch(graph, [0], -1, seed=0)

    def test_matches_scalar_loop_distribution(self, model_and_graph):
        """Batched and per-cascade means agree within combined CI."""
        model, graph = model_and_graph
        sims = 600
        _, indptr = model.simulate_batch(graph, [0, 3], sims, seed=10)
        batched = np.diff(indptr).astype(float)
        rng = np.random.default_rng(10)
        loop = np.array(
            [reference.spread(model, graph, [0, 3], rng) for _ in range(sims)],
            dtype=float,
        )
        margin = 4.0 * np.sqrt(
            batched.var(ddof=1) / sims + loop.var(ddof=1) / sims
        )
        assert abs(batched.mean() - loop.mean()) <= margin + 1e-9

    def test_matches_base_class_reference(self, model_and_graph):
        """The batched engine agrees with the reference simulate loop."""
        model, graph = model_and_graph
        sims = 500
        _, fast_indptr = model.simulate_batch(graph, [1], sims, seed=21)
        _, ref_indptr = reference.simulate_batch(model, graph, [1], sims, seed=22)
        fast = np.diff(fast_indptr).astype(float)
        ref = np.diff(ref_indptr).astype(float)
        margin = 4.0 * np.sqrt(fast.var(ddof=1) / sims + ref.var(ddof=1) / sims)
        assert abs(fast.mean() - ref.mean()) <= margin + 1e-9


class TestHubSeededLT:
    """Regression for the high-skew LT forward case (the engine benchmark's
    historical 0.85x weak spot): batching from a hub on a heavy-tailed
    graph must stay equivalent to the scalar loop, and the kernel path
    must stay bit-identical to the closures exactly where frontiers are
    widest."""

    @pytest.fixture
    def hub_and_graph(self):
        topology = generators.preferential_attachment(
            400, 6, seed=13, directed=False
        )
        graph = weighting.weighted_cascade(topology)
        hub = int(np.diff(graph.out_csr[0]).argmax())
        return hub, graph

    def test_batch_matches_scalar_loop_from_hub(self, hub_and_graph):
        hub, graph = hub_and_graph
        model = LinearThreshold()
        sims = 400
        _, indptr = model.simulate_batch(graph, [hub], sims, seed=31)
        batched = np.diff(indptr).astype(float)
        rng = np.random.default_rng(31)
        loop = np.array(
            [reference.spread(model, graph, [hub], rng) for _ in range(sims)],
            dtype=float,
        )
        margin = 4.0 * np.sqrt(
            batched.var(ddof=1) / sims + loop.var(ddof=1) / sims
        )
        assert abs(batched.mean() - loop.mean()) <= margin + 1e-9

    def test_backends_bit_identical_from_hub(self, hub_and_graph):
        hub, graph = hub_and_graph
        model = LinearThreshold()
        base = model.simulate_batch(graph, [hub], 120, seed=32, kernel="numpy")
        fast = model.simulate_batch(graph, [hub], 120, seed=32, kernel="python")
        assert np.array_equal(base[0], fast[0])
        assert np.array_equal(base[1], fast[1])


class TestEarlyStop:
    def test_never_stops_before_first_chunk(self, ic_model, path3):
        # Tolerance trivially satisfied (deterministic graph): the estimator
        # must still run the full minimum chunk, never fewer.
        est = estimate_spread(
            path3, ic_model, [0], samples=900, seed=0,
            context=ExecutionContext(mc_batch_size=64, mc_tolerance=1e9),
        )
        assert est.samples == 64
        assert est.mean == pytest.approx(3.0)

    def test_runs_to_samples_without_tolerance(self, ic_model, path3):
        est = estimate_spread(
            path3, ic_model, [0], samples=130, seed=0,
            context=ExecutionContext(mc_batch_size=64),
        )
        assert est.samples == 130  # 64 + 64 + 2: cap respected exactly

    def test_stops_once_tolerance_met(self, ic_model, small_social):
        loose = estimate_spread(
            small_social, ic_model, [0], samples=4000, seed=3,
            context=ExecutionContext(mc_batch_size=100, mc_tolerance=50.0),
        )
        tight = estimate_spread(
            small_social, ic_model, [0], samples=4000, seed=3,
            context=ExecutionContext(mc_batch_size=100, mc_tolerance=1e-6),
        )
        assert loose.samples == 100          # met after the first chunk
        assert tight.samples == 4000         # never met: runs to the cap
        assert 1.96 * loose.std_error <= 50.0


class TestCRNEvaluator:
    def test_identical_noise_is_reproducible(self, model_and_graph):
        model, graph = model_and_graph
        evaluator = CRNSpreadEvaluator(graph, model, n_sims=60, seed=4)
        first = evaluator.evaluate([0, 5])
        second = evaluator.evaluate([0, 5])
        assert first == second  # exact: same worlds, deterministic replay

    def test_superset_never_scores_below_subset(self, model_and_graph):
        model, graph = model_and_graph
        evaluator = CRNSpreadEvaluator(graph, model, n_sims=40, seed=9)
        matrix = evaluator.spread_matrix([[0], [0, 8], [0, 8, 15]])
        assert (matrix[1] >= matrix[0]).all()
        assert (matrix[2] >= matrix[1]).all()

    def test_matches_realization_replay(self, model_and_graph):
        # Construction is deterministic: re-drawing the worlds from the
        # same seed must reproduce the evaluator's scores exactly.
        model, graph = model_and_graph
        evaluator = CRNSpreadEvaluator(graph, model, n_sims=30, seed=6)
        matrix = evaluator.spread_matrix([[2, 4]])
        rng = np.random.default_rng(6)
        reference = [
            model.sample_realization(graph, rng).spread([2, 4])
            for _ in range(30)
        ]
        assert matrix[0].tolist() == reference

    def test_truncation_caps_values(self, model_and_graph):
        model, graph = model_and_graph
        evaluator = CRNSpreadEvaluator(graph, model, n_sims=30, seed=7)
        values = evaluator.evaluate_many([[0], [0, 1, 2]], eta=3)
        assert (values <= 3.0).all()

    def test_agrees_with_fresh_noise_estimate(self, ic_model, small_social):
        crn = estimate_spreads_many(
            small_social, ic_model, [[0]], n_sims=1500, seed=8
        )[0]
        mc = estimate_spread(small_social, ic_model, [0], samples=1500, seed=9)
        assert crn == pytest.approx(mc.mean, rel=0.15)

    def test_candidate_chunking_matches_unchunked(self, ic_model, small_social):
        """A tiny bitset budget forces many chunks; results are identical."""
        sets = [[v] for v in range(0, 40)]
        whole = CRNSpreadEvaluator(small_social, ic_model, n_sims=25, seed=12)
        tiny = CRNSpreadEvaluator(
            small_social, ic_model, n_sims=25, seed=12,
            bitset_budget=small_social.n * 25,  # one candidate per chunk
        )
        bounded = CRNSpreadEvaluator(
            small_social, ic_model, n_sims=25, seed=12,
            # jobs-per-sweep bound: one candidate per chunk
            context=ExecutionContext(mc_batch_size=25),
        )
        expected = whole.spread_matrix(sets)
        assert np.array_equal(expected, tiny.spread_matrix(sets))
        assert np.array_equal(expected, bounded.spread_matrix(sets))

    def test_validates_seed_ids(self, ic_model, small_social):
        evaluator = CRNSpreadEvaluator(small_social, ic_model, n_sims=5, seed=0)
        with pytest.raises(NodeNotFoundError):
            evaluator.evaluate_many([[0], [small_social.n]])
