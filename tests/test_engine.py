"""Tests for the batched sampling engine.

Two concerns:

* unit behavior of :class:`BatchSampler` and the root drawers (CSR shapes,
  chunked fills, validation, distinct roots, the rounding rule's mean);
* **batch-vs-single equivalence**: with fixed seeds, pools generated by the
  vectorized multi-source BFS must match the distribution of pools built
  one set at a time by the reference samplers — same mean set size and
  same spread estimates within statistical tolerance, for IC and LT, RR
  and mRR alike.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SamplingError
from repro.graph.builder import GraphBuilder
from repro.sampling.coverage import CoverageIndex
from repro.runtime.context import DEFAULT_BATCH_SIZE, ExecutionContext
from repro.sampling.engine import (
    BatchSampler,
    RandomizedRoundingRootDrawer,
    UniformRootDrawer,
    mrr_batch_sampler,
    rr_batch_sampler,
)
from repro.sampling.mrr import MRRCollection, RootCountRule
from repro.sampling.rr import RRCollection
from repro.testing.reference import MRRSampler, RRSampler


def _batch(size: int) -> ExecutionContext:
    """A context setting only the samples per engine call."""
    return ExecutionContext(sample_batch_size=size)


def _mean_sizes(index: CoverageIndex) -> float:
    return index.total_size() / len(index)


def _close(a: float, b: float, rel: float = 0.12, abs_slack: float = 0.6) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_slack


class TestUniformRootDrawer:
    def test_shapes_and_range(self, rng):
        roots, indptr = UniformRootDrawer(50).draw(rng, 40)
        assert list(indptr) == list(range(41))
        assert len(roots) == 40
        assert roots.min() >= 0 and roots.max() < 50

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            UniformRootDrawer(0)


class TestRandomizedRoundingRootDrawer:
    def test_roots_distinct_within_sample(self, rng):
        rule = RootCountRule.for_target(40, 3)  # E[k] = 13.33
        roots, indptr = RandomizedRoundingRootDrawer(rule).draw(rng, 200)
        for i in range(200):
            sample = roots[indptr[i] : indptr[i + 1]]
            assert len(np.unique(sample)) == len(sample)
            assert sample.min() >= 0 and sample.max() < 40

    def test_root_count_matches_rule_mean(self, rng):
        rule = RootCountRule.for_target(60, 7)  # E[k] = 60/7 ~ 8.571
        _, indptr = RandomizedRoundingRootDrawer(rule).draw(rng, 4000)
        ks = np.diff(indptr)
        assert set(np.unique(ks)) <= {rule.k_low, rule.k_low + 1}
        assert np.mean(ks) == pytest.approx(rule.expectation, rel=0.02)

    def test_argpartition_regime_when_k_large(self, rng):
        # k(k-1) > 2n forces the argpartition path (here 6*5=30 > 24).
        rule = RootCountRule.fixed(6, 12)
        roots, indptr = RandomizedRoundingRootDrawer(rule).draw(rng, 100)
        assert list(np.diff(indptr)) == [6] * 100
        for i in range(100):
            sample = roots[indptr[i] : indptr[i + 1]]
            assert len(np.unique(sample)) == 6

    def test_middle_band_terminates(self, rng):
        # Regression: sqrt(n) << k < n/8 must NOT use whole-row rejection —
        # its acceptance probability ~exp(-k^2/2n) vanishes there (a draw
        # at n=2000, k=150 would hang for astronomically long).  The
        # argpartition path must finish instantly and stay distinct.
        rule = RootCountRule.fixed(150, 2000)
        roots, indptr = RandomizedRoundingRootDrawer(rule).draw(rng, 30)
        assert list(np.diff(indptr)) == [150] * 30
        for i in range(30):
            sample = roots[indptr[i] : indptr[i + 1]]
            assert len(np.unique(sample)) == 150
            assert sample.min() >= 0 and sample.max() < 2000

    def test_workspace_chunking_covers_all_rows(self, rng):
        # Force multiple chunks through the argpartition path.
        drawer = RandomizedRoundingRootDrawer(RootCountRule.fixed(40, 500))
        original = drawer._WORKSPACE_ELEMENTS
        drawer._WORKSPACE_ELEMENTS = 600  # chunk = 1 row
        try:
            roots, indptr = drawer.draw(rng, 25)
        finally:
            drawer._WORKSPACE_ELEMENTS = original
        assert list(np.diff(indptr)) == [40] * 25
        for i in range(25):
            sample = roots[indptr[i] : indptr[i + 1]]
            assert len(np.unique(sample)) == 40


class TestBatchSampler:
    def test_sample_batch_csr_contract(self, ic_model, small_social, rng):
        engine = rr_batch_sampler(small_social, ic_model, seed=rng)
        members, indptr = engine.sample_batch(30)
        assert len(indptr) == 31
        assert indptr[0] == 0 and indptr[-1] == len(members)
        sizes = np.diff(indptr)
        assert (sizes >= 1).all()  # every set contains at least its root
        for i in range(30):
            sample = members[indptr[i] : indptr[i + 1]]
            assert len(np.unique(sample)) == len(sample)

    def test_zero_count(self, ic_model, small_social):
        engine = rr_batch_sampler(small_social, ic_model, seed=0)
        members, indptr = engine.sample_batch(0)
        assert len(members) == 0 and list(indptr) == [0]

    def test_negative_count_rejected(self, ic_model, small_social):
        engine = rr_batch_sampler(small_social, ic_model, seed=0)
        with pytest.raises(SamplingError):
            engine.sample_batch(-1)
        with pytest.raises(SamplingError):
            engine.fill(CoverageIndex(small_social.n), -1)

    def test_fill_chunks_to_batch_size(self, ic_model, small_social):
        engine = rr_batch_sampler(small_social, ic_model, seed=0, context=_batch(16))
        index = CoverageIndex(small_social.n)
        engine.fill(index, 50)  # 16 + 16 + 16 + 2
        assert len(index) == 50

    def test_invalid_batch_size(self, ic_model, small_social):
        with pytest.raises(ConfigurationError):
            rr_batch_sampler(small_social, ic_model, seed=0, context=_batch(0))

    def test_empty_graph_rejected(self, ic_model):
        empty = GraphBuilder(0).build()
        with pytest.raises(SamplingError):
            BatchSampler(empty, ic_model, UniformRootDrawer(1), seed=0)

    def test_default_batch_size(self, ic_model, small_social):
        engine = rr_batch_sampler(small_social, ic_model, seed=0)
        assert engine.batch_size == DEFAULT_BATCH_SIZE

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_pooled_scratch_restored(self, model_fixture, small_social, request):
        # The visitation bitset is pooled across calls; a leftover True bit
        # would silently truncate later samples.
        model = request.getfixturevalue(model_fixture)
        engine = rr_batch_sampler(small_social, model, seed=0, context=_batch(16))
        for _ in range(5):
            engine.sample_batch(16)
            assert not engine._scratch.any()


class TestBatchSingleEquivalenceRR:
    """Fixed-seed statistical equivalence of the RR generation paths."""

    THETA = 2500

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_mean_set_size_matches(self, model_fixture, small_social, request):
        model = request.getfixturevalue(model_fixture)
        single_index = CoverageIndex(small_social.n)
        RRSampler(small_social, model, seed=101).sample_into(
            single_index, self.THETA
        )
        batched_index = CoverageIndex(small_social.n)
        rr_batch_sampler(small_social, model, seed=202, context=_batch(128)).fill(
            batched_index, self.THETA
        )
        assert _close(_mean_sizes(single_index), _mean_sizes(batched_index))

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_spread_estimates_match(self, model_fixture, small_social, request):
        model = request.getfixturevalue(model_fixture)
        seeds = [0, 5, 17]
        single = RRCollection(small_social, model, seed=303, context=_batch(1))
        single.grow_to(self.THETA)
        batched = RRCollection(small_social, model, seed=404, context=_batch(256))
        batched.grow_to(self.THETA)
        assert _close(
            single.estimated_spread(seeds), batched.estimated_spread(seeds)
        )

    def test_batch_size_one_equals_reference_stream(self, ic_model, small_social):
        # batch_size=1 is the degenerate batch; same rng must reproduce the
        # reference sampler's sets exactly (same draws, same order).
        a = RRSampler(small_social, ic_model, seed=7)
        reference = [np.sort(a.sample()) for _ in range(20)]
        engine = rr_batch_sampler(small_social, ic_model, seed=7, context=_batch(1))
        for expected in reference:
            members, indptr = engine.sample_batch(1)
            assert list(indptr) == [0, len(members)]
            assert np.array_equal(np.sort(members), expected)


class TestBatchSingleEquivalenceMRR:
    """Fixed-seed statistical equivalence of the mRR generation paths."""

    THETA = 1500
    ETA = 15

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_mean_set_size_matches(self, model_fixture, small_social, request):
        model = request.getfixturevalue(model_fixture)
        rule = RootCountRule.for_target(small_social.n, self.ETA)
        single_index = CoverageIndex(small_social.n)
        MRRSampler(
            small_social, model, self.ETA, seed=111, rule=rule
        ).sample_into(single_index, self.THETA)
        batched_index = CoverageIndex(small_social.n)
        mrr_batch_sampler(
            small_social, model, rule, seed=222, context=_batch(128)
        ).fill(batched_index, self.THETA)
        assert _close(_mean_sizes(single_index), _mean_sizes(batched_index))

    @pytest.mark.parametrize("model_fixture", ["ic_model", "lt_model"])
    def test_truncated_estimates_match(self, model_fixture, small_social, request):
        model = request.getfixturevalue(model_fixture)
        seeds = [0, 3]
        single = MRRCollection(
            small_social, model, self.ETA, seed=333, context=_batch(1)
        )
        single.grow_to(self.THETA)
        batched = MRRCollection(
            small_social, model, self.ETA, seed=444, context=_batch(256)
        )
        batched.grow_to(self.THETA)
        assert _close(
            single.estimated_truncated_spread(seeds),
            batched.estimated_truncated_spread(seeds),
        )

    def test_collection_routes_growth_through_engine(self, ic_model, small_social):
        collection = MRRCollection(
            small_social, ic_model, self.ETA, seed=5, context=_batch(64)
        )
        collection.grow_to(200)
        assert len(collection) == 200
        assert collection.engine.batch_size == 64


class TestFillRootCounts:
    def test_rr_fill_reports_all_ones(self, small_social, ic_model):
        engine = rr_batch_sampler(small_social, ic_model, seed=7, context=_batch(16))
        index = CoverageIndex(small_social.n)
        counts = engine.fill(index, 40)
        assert len(counts) == 40
        assert (counts == 1).all()

    def test_mrr_fill_counts_lie_in_rule_support(self, small_social, ic_model):
        from repro.sampling.mrr import RootCountRule

        rule = RootCountRule.for_target(small_social.n, 9)
        engine = mrr_batch_sampler(
            small_social, ic_model, rule, seed=7, context=_batch(16)
        )
        index = CoverageIndex(small_social.n)
        counts = engine.fill(index, 50)
        assert len(counts) == 50
        assert set(np.unique(counts)) <= set(rule.support())
        assert engine.fill(index, 0).shape == (0,)
