"""Unit tests for the coverage index and greedy maximum coverage."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SamplingError
from repro.sampling.coverage import CoverageIndex
from repro.testing.reference import greedy_max_coverage_eager


def make_index(n, sets):
    index = CoverageIndex(n)
    for members in sets:
        index.add(np.asarray(members, dtype=np.int64))
    return index


class TestAdd:
    def test_counts_updated(self):
        index = make_index(4, [[0, 1], [1, 2]])
        assert index.coverage_of(0) == 1
        assert index.coverage_of(1) == 2
        assert index.coverage_of(3) == 0
        assert len(index) == 2

    def test_empty_set_rejected(self):
        index = CoverageIndex(3)
        with pytest.raises(SamplingError):
            index.add(np.array([], dtype=np.int64))

    def test_out_of_range_rejected(self):
        index = CoverageIndex(3)
        with pytest.raises(SamplingError):
            index.add(np.array([5]))

    def test_duplicate_members_rejected(self):
        # A repeated id inside one set would desynchronize the coverage
        # counts from coverage_of_set (inflated argmax); reject loudly.
        index = CoverageIndex(5)
        with pytest.raises(SamplingError):
            index.add(np.array([2, 2, 3]))
        # Duplicates across different sets of one batch are legitimate.
        index.add_batch(
            np.array([2, 3, 2, 4], dtype=np.int64),
            np.array([0, 2, 4], dtype=np.int64),
        )
        assert index.coverage_of(2) == 2

    def test_total_size(self):
        index = make_index(4, [[0, 1], [1, 2, 3]])
        assert index.total_size() == 5

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            CoverageIndex(0)


class TestArgmax:
    def test_argmax_node(self):
        index = make_index(4, [[0, 1], [1, 2], [1]])
        node, coverage = index.argmax_node()
        assert node == 1
        assert coverage == 3

    def test_tie_breaks_to_smallest_id(self):
        index = make_index(4, [[2, 3]])
        node, coverage = index.argmax_node()
        assert node == 2
        assert coverage == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(SamplingError):
            CoverageIndex(3).argmax_node()

    def test_coverage_counts_copy(self):
        index = make_index(3, [[0]])
        counts = index.coverage_counts()
        counts[0] = 99
        assert index.coverage_of(0) == 1


class TestCoverageOfSet:
    def test_union_not_sum(self):
        index = make_index(4, [[0, 1], [1, 2]])
        # Both sets contain node 1: the pair {0, 1} covers both sets but the
        # count is 2 (union), not 3 (sum).
        assert index.coverage_of_set([0, 1]) == 2

    def test_empty_seed_set(self):
        index = make_index(4, [[0, 1]])
        assert index.coverage_of_set([]) == 0

    def test_out_of_range_node(self):
        index = make_index(4, [[0]])
        with pytest.raises(SamplingError):
            index.coverage_of_set([9])


class TestGreedyMaxCoverage:
    def test_single_pick_is_argmax(self):
        index = make_index(5, [[0, 1], [1, 2], [1, 3], [4]])
        result = index.greedy_max_coverage(1)
        assert result.nodes == [1]
        assert result.covered == 3

    def test_two_picks_cover_more(self):
        index = make_index(5, [[0, 1], [1, 2], [1, 3], [4]])
        result = index.greedy_max_coverage(2)
        assert result.nodes[0] == 1
        assert result.covered == 4  # node 4 mops up the singleton

    def test_marginal_gains_decrease(self):
        index = make_index(6, [[0, 1, 2], [0, 3], [0, 4], [5]])
        result = index.greedy_max_coverage(3)
        gains = result.marginal_gains
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))

    def test_budget_exceeding_useful_nodes_pads_with_zero_gain(self):
        index = make_index(4, [[0]])
        result = index.greedy_max_coverage(3)
        assert len(result.nodes) == 3
        assert result.covered == 1
        assert result.marginal_gains[1:] == [0, 0]

    def test_no_duplicate_picks(self):
        index = make_index(4, [[0, 1], [0, 2], [0, 3]])
        result = index.greedy_max_coverage(4)
        assert len(set(result.nodes)) == len(result.nodes)

    def test_stop_at_coverage(self):
        index = make_index(6, [[0], [1], [2], [3], [4], [5]])
        result = index.greedy_max_coverage(6, stop_at_coverage=3)
        assert result.covered == 3
        assert len(result.nodes) == 3

    def test_matches_optimum_when_disjoint(self):
        # Disjoint sets: greedy is exactly optimal.
        index = make_index(6, [[0], [0], [1], [2]])
        result = index.greedy_max_coverage(2)
        assert result.covered == 3  # node 0 (2 sets) + one singleton

    def test_guarantee_on_adversarial_instance(self):
        # Classic greedy-vs-optimal gap instance; greedy must stay within
        # 1 - (1 - 1/b)^b of optimal.
        sets = [[0, 2], [0, 3], [1, 2], [1, 3], [2], [3]]
        index = make_index(4, sets)
        b = 2
        greedy = index.greedy_max_coverage(b).covered
        # Brute-force the optimal pair.
        best = 0
        for u in range(4):
            for v in range(u + 1, 4):
                best = max(best, index.coverage_of_set([u, v]))
        rho = 1 - (1 - 1 / b) ** b
        assert greedy >= rho * best

    def test_invalid_budget(self):
        index = make_index(3, [[0]])
        with pytest.raises(ConfigurationError):
            index.greedy_max_coverage(0)
        with pytest.raises(ConfigurationError):
            index.greedy_max_coverage(4)


class TestLazyGreedyEquivalence:
    """The CELF-style lazy queue must reproduce the eager reference exactly."""

    def _random_pool(self, n, sets, max_size, seed):
        rng = np.random.default_rng(seed)
        return make_index(
            n,
            [
                rng.choice(n, size=rng.integers(1, max_size + 1), replace=False)
                for _ in range(sets)
            ],
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_eager_on_random_pools(self, seed):
        index = self._random_pool(n=40, sets=120, max_size=6, seed=seed)
        for budget in (1, 3, 12, 40):
            eager = greedy_max_coverage_eager(index, budget)
            lazy = index.greedy_max_coverage(budget)
            assert eager.nodes == lazy.nodes, (seed, budget)
            assert eager.covered == lazy.covered
            assert eager.marginal_gains == lazy.marginal_gains

    def test_matches_eager_with_stop_at_coverage(self):
        index = self._random_pool(n=30, sets=80, max_size=5, seed=9)
        for stop in (1, 20, 55, 10_000):
            eager = greedy_max_coverage_eager(index, 30, stop_at_coverage=stop)
            lazy = index.greedy_max_coverage(30, stop_at_coverage=stop)
            assert eager.nodes == lazy.nodes, stop
            assert eager.covered == lazy.covered
            assert eager.marginal_gains == lazy.marginal_gains

    def test_zero_gain_padding_matches(self):
        # Budget beyond the covering nodes: both paths pad with untouched
        # nodes in ascending id order (the documented tie-break).
        index = make_index(6, [[1, 2], [2, 3]])
        eager = greedy_max_coverage_eager(index, 5)
        lazy = index.greedy_max_coverage(5)
        assert eager.nodes == lazy.nodes
        assert lazy.marginal_gains == eager.marginal_gains
        assert lazy.marginal_gains[0] > 0 and lazy.marginal_gains[-1] == 0

    def test_tie_break_prefers_smallest_node_id(self):
        index = make_index(5, [[3], [3], [1], [1], [4]])
        for greedy in (greedy_max_coverage_eager, CoverageIndex.greedy_max_coverage):
            result = greedy(index, 2)
            assert result.nodes[0] == 1  # gain tie between 1 and 3
