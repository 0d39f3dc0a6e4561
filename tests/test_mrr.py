"""Unit tests for multi-root RR sets — the paper's core sampling primitive."""

import numpy as np
import pytest

from repro.diffusion.exact import exact_expected_truncated_spread
from repro.errors import ConfigurationError, SamplingError
from repro.graph import generators
from repro.graph.residual import initial_residual, shrink_residual
from repro.sampling.mrr import (
    MRRCollection,
    RootCountRule,
    build_round_pool,
    estimate_truncated_spread_mrr,
)
from repro.testing.reference import MRRSampler

ONE_MINUS_INV_E = 1.0 - 1.0 / np.e


class TestRootCountRule:
    def test_integer_ratio_is_deterministic(self):
        rule = RootCountRule.for_target(10, 5)
        assert rule.k_low == 2
        assert rule.fraction == pytest.approx(0.0)
        assert rule.expectation == pytest.approx(2.0)

    def test_fractional_ratio(self):
        rule = RootCountRule.for_target(10, 4)   # n/eta = 2.5
        assert rule.k_low == 2
        assert rule.fraction == pytest.approx(0.5)

    def test_expectation_matches_target(self, rng):
        rule = RootCountRule.for_target(10, 3)   # n/eta = 3.333...
        draws = [rule.draw(rng) for _ in range(6000)]
        assert np.mean(draws) == pytest.approx(10 / 3, abs=0.05)

    def test_draws_are_adjacent_integers(self, rng):
        rule = RootCountRule.for_target(10, 4)
        assert set(rule.draw(rng) for _ in range(200)) <= {2, 3}

    def test_eta_one_gives_all_roots(self, rng):
        rule = RootCountRule.for_target(7, 1)
        assert all(rule.draw(rng) == 7 for _ in range(20))

    def test_eta_equals_n_gives_single_root(self, rng):
        # n/eta = 1: mRR degenerates to a vanilla RR set.
        rule = RootCountRule.for_target(9, 9)
        assert all(rule.draw(rng) == 1 for _ in range(20))

    def test_fixed_rule(self, rng):
        rule = RootCountRule.fixed(3, 10)
        assert all(rule.draw(rng) == 3 for _ in range(20))

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            RootCountRule.for_target(5, 0)
        with pytest.raises(ConfigurationError):
            RootCountRule.for_target(5, 6)
        with pytest.raises(ConfigurationError):
            RootCountRule.fixed(0, 5)


class TestMRRSampler:
    def test_sets_contain_roots(self, ic_model, small_social, rng):
        sampler = MRRSampler(small_social, ic_model, eta=12, seed=rng)
        members = sampler.sample()
        assert len(members) >= 1
        assert len(set(members.tolist())) == len(members)

    def test_invalid_eta(self, ic_model, path3):
        with pytest.raises(SamplingError):
            MRRSampler(path3, ic_model, eta=0)
        with pytest.raises(SamplingError):
            MRRSampler(path3, ic_model, eta=7)

    def test_lt_supported(self, lt_model, path5_half, rng):
        sampler = MRRSampler(path5_half, lt_model, eta=2, seed=rng)
        members = sampler.sample()
        assert 1 <= len(members) <= 5


class TestTheorem33:
    """The mRR estimator's bias bracket: (1-1/e) E[Gamma] <= E[Gamma~] <= E[Gamma]."""

    @pytest.mark.parametrize("eta", [1, 2, 3])
    def test_bracket_on_paper_example(self, ic_model, eta):
        g = generators.paper_example_graph()
        for seeds in ([0], [1], [3], [0, 3]):
            truth = exact_expected_truncated_spread(g, ic_model, seeds, eta)
            estimate = estimate_truncated_spread_mrr(
                g, ic_model, seeds, eta, theta=12000, seed=42
            )
            assert estimate <= truth * 1.06          # upper: E[G~] <= E[G]
            assert estimate >= truth * ONE_MINUS_INV_E * 0.94  # lower

    def test_bracket_on_random_graph(self, ic_model):
        g = generators.erdos_renyi(12, 2.0, seed=5)
        g = g.with_probabilities(lambda u, v: 0.4)
        if g.m > 18:  # keep exact enumeration tractable
            pytest.skip("sampled graph too dense for exact enumeration")
        eta = 4
        seeds = [0, 1]
        truth = exact_expected_truncated_spread(g, ic_model, seeds, eta)
        if truth == 0:
            pytest.skip("degenerate draw")
        estimate = estimate_truncated_spread_mrr(
            g, ic_model, seeds, eta, theta=12000, seed=9
        )
        assert ONE_MINUS_INV_E * truth * 0.9 <= estimate <= truth * 1.1

    def test_rr_sets_are_biased_for_truncation(self, ic_model):
        """Section 3.2's negative result: single-root RR underestimates.

        With k = 1 the estimator expectation is (eta/n) E[I(S)], far below
        E[Gamma(S)] when eta << n.
        """
        g = generators.star_graph(12, probability=1.0)
        eta = 3
        truth = exact_expected_truncated_spread(g, ic_model, [0], eta)
        assert truth == pytest.approx(3.0)
        hub_biased = estimate_truncated_spread_mrr(
            g, ic_model, [0], eta, theta=6000, seed=3,
            rule=RootCountRule.fixed(1, 12),
        )
        # Hub seed: every single-root RR set of the certain star contains
        # the hub, so even the naive estimator is exact here.
        assert hub_biased == pytest.approx(3.0)
        # Naive RR estimate = eta * Pr[hub in R] = eta * 1 = 3?  No: with a
        # single uniform root the hub is always in R (certain star), so this
        # particular graph hits.  Use a leaf seed to expose the bias:
        leaf_truth = exact_expected_truncated_spread(g, ic_model, [1], eta)
        assert leaf_truth == pytest.approx(1.0)
        leaf_biased = estimate_truncated_spread_mrr(
            g, ic_model, [1], eta, theta=6000, seed=3,
            rule=RootCountRule.fixed(1, 12),
        )
        # Single-root: Pr[leaf in R] = 1/12, estimate = 3/12 = 0.25 << 1.
        assert leaf_biased < 0.6 * leaf_truth


class TestMRRCollection:
    def test_grow_and_estimate(self, ic_model, small_social):
        pool = MRRCollection(small_social, ic_model, eta=10, seed=0)
        pool.grow_to(300)
        assert len(pool) == 300
        value = pool.estimated_truncated_spread([0])
        assert 0.0 <= value <= 10.0

    def test_estimate_bounded_by_eta(self, ic_model, small_social):
        pool = MRRCollection(small_social, ic_model, eta=5, seed=1)
        pool.grow_to(200)
        everything = pool.estimated_truncated_spread(list(range(small_social.n)))
        assert everything == pytest.approx(5.0)

    def test_estimate_requires_sets(self, ic_model, path3):
        pool = MRRCollection(path3, ic_model, eta=2, seed=0)
        with pytest.raises(SamplingError):
            pool.estimated_truncated_spread([0])

    def test_node_estimate_consistent_with_set_estimate(self, ic_model, small_social):
        pool = MRRCollection(small_social, ic_model, eta=8, seed=2)
        pool.grow_to(400)
        # TRIM's gain is eta * Lambda_R(v) / |R| from the O(1) counter.
        assert pool.estimated_truncated_spread([3]) == (
            pool.eta * pool.index.coverage_of(3) / len(pool)
        )


class TestCarriedPool:
    """Cross-round carry-over: export, re-validation, fallback."""

    def _pool(self, graph, model, eta, theta=60, seed=4):
        residual = initial_residual(graph, eta)
        collection = MRRCollection(graph, model, eta, seed=seed)
        collection.grow_to(theta)
        return residual, collection

    def test_root_counts_tracked(self, small_social, ic_model):
        _, collection = self._pool(small_social, ic_model, eta=12)
        assert len(collection.root_counts) == len(collection)
        rule = collection.rule
        assert set(np.unique(collection.root_counts)) <= set(rule.support())
        assert collection.adopted_count == 0
        assert collection.fresh_count == len(collection)

    def test_export_identity_roundtrip(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        kept, diagnostics = carry.revalidate(residual)
        assert kept is not None
        index, root_counts = kept
        members, indptr = index.packed()
        assert diagnostics.sets_carried == len(collection)
        assert diagnostics.fallback is None
        # Round 1's residual is the identity mapping: bit-equal round-trip.
        packed_members, packed_indptr = collection.index.packed()
        assert np.array_equal(members, packed_members)
        assert np.array_equal(indptr, packed_indptr)
        assert np.array_equal(root_counts, collection.root_counts)

    def test_sets_with_activated_members_dropped(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        # Activate the highest-coverage node: every set containing it dies.
        hot, coverage = collection.index.argmax_node()
        shrunk = shrink_residual(residual, [hot])
        kept, diagnostics = carry.revalidate(shrunk)
        assert diagnostics.dropped_activated == coverage
        if kept is not None:
            members, indptr = kept[0].packed()
            # Survivors are remapped to the shrunk residual's local ids.
            assert diagnostics.sets_carried == len(indptr) - 1
            if len(members):
                assert members.max() < shrunk.n
            restored = shrunk.original_ids[members]
            assert hot not in set(restored.tolist())

    def test_regime_shift_falls_back(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        # A shrunk residual whose n/eta ratio leaves the carried support
        # entirely: k was ~ n/12 = 10; after 10 activations the shortfall
        # is 2 and the new rule needs k ~ 55.
        rng = np.random.default_rng(0)
        activated = rng.choice(residual.n, size=10, replace=False)
        shrunk = shrink_residual(residual, activated)
        assert not set(
            RootCountRule.for_target(shrunk.n, shrunk.shortfall).support()
        ) & set(np.unique(carry.root_counts))
        kept, diagnostics = carry.revalidate(shrunk)
        assert kept is None
        assert "regime" in diagnostics.fallback

    def test_adopt_requires_empty_pool(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        kept, _ = carry.revalidate(residual)
        with pytest.raises(SamplingError):
            collection.adopt(*kept)
        fresh = MRRCollection(small_social, ic_model, 12, seed=9)
        fresh.adopt(*kept)
        assert fresh.adopted_count == len(collection)
        assert fresh.fresh_count == 0
        fresh.grow_to(len(collection) + 10)
        assert fresh.fresh_count == 10

    def test_build_round_pool_adopts_then_tops_up(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        pool, diagnostics = build_round_pool(
            residual, ic_model, np.random.default_rng(3), carry=carry
        )
        assert diagnostics.sets_carried == len(collection)
        assert pool.adopted_count == len(collection)
        pool.grow_to(len(collection) + 25)
        assert pool.fresh_count == 25
        assert len(pool.root_counts) == len(pool)

    # -- Malformed snapshots ------------------------------------------

    @staticmethod
    def _tampered(carry, **arrays):
        from dataclasses import replace

        return replace(carry, **arrays)

    @pytest.mark.parametrize("bad_id", [-1, "n"])
    def test_out_of_range_member_is_corrupt(self, small_social, ic_model, bad_id):
        # A -1 used to wrap around to node n-1 and survive revalidation.
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        members = carry.members.copy()
        members[0] = residual.n if bad_id == "n" else bad_id
        kept, diagnostics = self._tampered(carry, members=members).revalidate(residual)
        assert kept is None
        assert diagnostics.fallback == "corrupt carried pool"
        assert diagnostics.sets_carried == 0

    def test_short_indptr_is_corrupt(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        indptr = carry.indptr.copy()
        indptr[-1] -= 1
        kept, diagnostics = self._tampered(carry, indptr=indptr).revalidate(residual)
        assert kept is None
        assert diagnostics.fallback == "corrupt carried pool"

    def test_root_counts_length_mismatch_is_corrupt(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        tampered = self._tampered(carry, root_counts=carry.root_counts[:-1])
        kept, diagnostics = tampered.revalidate(residual)
        assert kept is None
        assert diagnostics.fallback == "corrupt carried pool"

    def test_corrupt_pool_is_discarded_by_service(self):
        from repro.runtime.context import ExecutionContext
        from repro.service import handlers
        from repro.service.protocol import Request

        params = {"dataset": "nethept-sim", "n": 120, "eta": 12, "theta": 60,
                  "seeds": [0, 1]}
        plan = handlers.build_plan(Request(id="a", op="estimate", seed=3, params=params))
        graph = handlers.load_graph(plan)
        context = ExecutionContext(sample_batch_size=plan.batch_size)
        cold = handlers.run_estimate(graph, plan, context)
        intact = handlers.run_estimate(graph, plan, context, cold.carry)
        assert intact.carry_status == handlers.CARRY_ADOPTED
        members = cold.carry.members.copy()
        members[0] = -1
        warm = handlers.run_estimate(
            graph, plan, context, self._tampered(cold.carry, members=members)
        )
        assert warm.carry_status == handlers.CARRY_DISCARDED
        assert warm.result == cold.result

    # -- Exact replay (the service's pool cache) -----------------------

    def test_replay_installs_exported_pool_as_is(self, small_social, ic_model):
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        snapshot_counts = carry.counts.copy()
        replayed = carry.replay(12)
        assert replayed is not None
        index, root_counts = replayed
        members, indptr = index.packed()
        packed_members, packed_indptr = collection.index.packed()
        assert np.array_equal(members, packed_members)
        assert np.array_equal(indptr, packed_indptr)
        assert np.array_equal(index.coverage_counts(), snapshot_counts)
        assert np.array_equal(root_counts, collection.root_counts)
        fresh = MRRCollection(small_social, ic_model, 12, seed=9)
        fresh.adopt(*replayed)
        assert fresh.estimated_truncated_spread(
            [0, 3]
        ) == collection.estimated_truncated_spread([0, 3])
        # Growing the replayed pool leaves the cached snapshot untouched.
        fresh.grow_to(len(collection) + 10)
        assert np.array_equal(carry.counts, snapshot_counts)
        assert len(carry) == len(collection)

    @pytest.mark.parametrize(
        "tamper", ["root_count", "indptr_order", "member_high", "member_low"]
    )
    def test_replay_rejects_tampered_pool(self, small_social, ic_model, tamper):
        from repro.testing.faults import corrupt_carried_pool

        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        if tamper == "root_count":
            bad = corrupt_carried_pool(carry)
        elif tamper == "indptr_order":
            indptr = carry.indptr.copy()
            indptr[1], indptr[2] = indptr[2], indptr[1]
            bad = self._tampered(carry, indptr=indptr)
        else:
            members = carry.members.copy()
            members[0] = residual.n if tamper == "member_high" else -1
            bad = self._tampered(carry, members=members)
        assert bad.replay(12) is None

    def test_replay_rejects_another_target(self, small_social, ic_model):
        # eta=1 needs n-root sets; eta beyond n is no target at all.
        residual, collection = self._pool(small_social, ic_model, eta=12)
        carry = collection.export_carry(residual)
        assert carry.replay(1) is None
        assert carry.replay(small_social.n + 1) is None

    # -- Cross-request reuse (the service's warm-pool cache) -----------

    def test_cross_request_regime_shift_falls_back(self, small_social, ic_model):
        # A pool built for one request's eta offered to a request whose
        # eta puts the root-count rule on a disjoint support: eta=n wants
        # single-root sets, eta=1 wants n-root sets.  Revalidation must
        # fall back to a scratch build, never adopt off-support sets.
        n = small_social.n
        residual_a, collection = self._pool(small_social, ic_model, eta=n)
        carry = collection.export_carry(residual_a)
        residual_b = initial_residual(small_social, 1)
        assert not set(
            RootCountRule.for_target(residual_b.n, residual_b.shortfall).support()
        ) & set(np.unique(carry.root_counts))
        kept, diagnostics = carry.revalidate(residual_b)
        assert kept is None
        assert "regime" in diagnostics.fallback
        assert diagnostics.sets_carried == 0

    def test_emptied_pool_reenters_cleanly(self, small_social, ic_model):
        # An empty carry (every set invalidated in an earlier request, or
        # a fresh key) must re-enter the adopt/grow/export cycle without
        # special-casing: adoption is a no-op and the next export is a
        # full-strength carry again.
        residual = initial_residual(small_social, 12)
        empty = MRRCollection(small_social, ic_model, 12, seed=4)
        carry = empty.export_carry(residual)
        kept, diagnostics = carry.revalidate(residual)
        assert kept is not None
        assert diagnostics.sets_offered == 0
        assert diagnostics.sets_carried == 0
        assert diagnostics.fallback is None
        fresh = MRRCollection(small_social, ic_model, 12, seed=4)
        fresh.adopt(*kept)
        assert fresh.adopted_count == 0
        fresh.grow_to(40)
        assert fresh.fresh_count == 40
        next_carry = fresh.export_carry(residual)
        kept_again, diagnostics_again = next_carry.revalidate(residual)
        assert kept_again is not None
        assert diagnostics_again.sets_carried == 40
        assert diagnostics_again.fallback is None
