"""Tests for the batched adaptive-session engine and mRR pool carry-over.

Covers the two equivalence guarantees the engine makes:

* with ``reuse_pool=False`` a batched run is *bit-identical* to running the
  sessions sequentially through :func:`run_adaptive_policy` on the same
  per-session random streams;
* with ``reuse_pool=True`` (carry-over) every session still reaches its
  target and selects the same number of seeds as the from-scratch path.
"""

import numpy as np
import pytest

from repro.core.asti import ASTI, run_adaptive_policy, run_adaptive_policy_batch
from repro.core.policy import FirstNodeSelector
from repro.core.session import AdaptiveSession
from repro.core.trim import TrimSelector
from repro.core.trim_b import TrimBSelector
from repro.diffusion.realization import ICRealization
from repro.errors import ConfigurationError
from repro.graph import generators, weighting
from repro.graph.residual import initial_residual
from repro.runtime.context import ExecutionContext
from repro.utils.rng import spawn_generators


def _reuse(on: bool) -> ExecutionContext:
    """A context that switches only cross-round pool reuse."""
    return ExecutionContext(reuse_pool=on)


@pytest.fixture
def social(ic_model):
    topology = generators.preferential_attachment(150, 2, seed=3, directed=False)
    return weighting.scaled_cascade(topology, 0.5)


def shared_worlds(model, graph, count, seed=50):
    return [model.sample_realization(graph, seed=seed + i) for i in range(count)]


class TestBatchDriverEquivalence:
    ETA = 30

    def _sequential(self, graph, model, selector, phis, seed):
        streams = spawn_generators(seed, len(phis))
        return [
            run_adaptive_policy(
                graph, self.ETA, model, selector, realization=phi, seed=rng
            )
            for phi, rng in zip(phis, streams)
        ]

    @pytest.mark.parametrize("make_selector", [
        lambda m: TrimSelector(m, context=_reuse(False)),
        lambda m: TrimBSelector(m, b=3, context=_reuse(False)),
        lambda m: FirstNodeSelector(),
    ])
    def test_reuse_off_matches_sequential_exactly(
        self, ic_model, social, make_selector
    ):
        phis = shared_worlds(ic_model, social, 4)
        sequential = self._sequential(
            social, ic_model, make_selector(ic_model), phis, seed=9
        )
        batched = run_adaptive_policy_batch(
            social,
            self.ETA,
            ic_model,
            make_selector(ic_model),
            phis,
            seeds=spawn_generators(9, len(phis)),
        )
        for a, b in zip(sequential, batched):
            assert a.seeds == b.seeds
            assert a.spread == b.spread
            assert len(a.rounds) == len(b.rounds)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_reuse_on_matches_seed_counts(self, ic_model, social, batch_size):
        phis = shared_worlds(ic_model, social, 4)
        scratch = ASTI(ic_model, batch_size=batch_size, context=_reuse(False))
        fresh = self._sequential(social, ic_model, scratch.selector, phis, seed=9)
        carried = run_adaptive_policy_batch(
            social,
            self.ETA,
            ic_model,
            ASTI(ic_model, batch_size=batch_size, context=_reuse(True)).selector,
            phis,
            seeds=spawn_generators(9, len(phis)),
        )
        for a, b in zip(fresh, carried):
            assert b.spread >= self.ETA
            assert b.seed_count == a.seed_count

    def test_reuse_on_actually_carries(self, ic_model, social):
        # eta/n = 0.5 keeps the root-count rule in one regime for many
        # rounds, so pools must actually carry (fewer fresh samples); the
        # small-eta regimes legitimately fall back nearly every round.
        eta = social.n // 2
        phis = shared_worlds(ic_model, social, 3)
        fresh = run_adaptive_policy_batch(
            social, eta, ic_model,
            TrimSelector(ic_model, context=_reuse(False)), phis, seeds=1,
        )
        carried = run_adaptive_policy_batch(
            social, eta, ic_model,
            TrimSelector(ic_model, context=_reuse(True)), phis, seeds=1,
        )
        assert sum(r.total_samples for r in carried) < sum(
            r.total_samples for r in fresh
        )

    def test_run_batch_facade_renames(self, ic_model, social):
        phis = shared_worlds(ic_model, social, 2)
        results = ASTI(ic_model, batch_size=4).run_batch(
            social, self.ETA, phis, seeds=3
        )
        assert [r.policy_name for r in results] == ["ASTI-4", "ASTI-4"]
        assert all(r.spread >= self.ETA for r in results)

    def test_seed_stream_count_mismatch(self, ic_model, social):
        phis = shared_worlds(ic_model, social, 2)
        with pytest.raises(ConfigurationError):
            run_adaptive_policy_batch(
                social, 10, ic_model, FirstNodeSelector(), phis,
                seeds=spawn_generators(0, 3),
            )
        # Any non-scalar sequence counts as per-session sources, arrays too.
        with pytest.raises(ConfigurationError):
            run_adaptive_policy_batch(
                social, 10, ic_model, FirstNodeSelector(), phis,
                seeds=np.arange(3),
            )

    def test_carry_diagnostics_surface_in_rounds(self, ic_model, social):
        eta = social.n // 2
        phis = shared_worlds(ic_model, social, 2)
        results = run_adaptive_policy_batch(
            social, eta, ic_model,
            TrimSelector(ic_model, context=_reuse(True)), phis, seeds=1,
        )
        for result in results:
            assert result.rounds[0].samples_carried == 0  # nothing to reuse yet
            if len(result.rounds) > 1:
                assert result.total_samples_carried == sum(
                    r.samples_carried for r in result.rounds
                )
        # The selector-level diagnostics expose the full drop accounting.
        from repro.graph.residual import initial_residual

        selector = TrimSelector(ic_model, context=_reuse(True))
        rng = np.random.default_rng(2)
        residual = initial_residual(social, eta)
        first, carry = selector.select_with_pool(residual, rng)
        assert first.diagnostics.carry is None  # no pool was offered
        second, _ = selector.select_with_pool(residual, rng, carry)
        assert second.diagnostics.carry is not None
        assert second.diagnostics.carry.sets_offered == len(carry)


class TestAdaptiveEdgeCases:
    def test_round_exactly_exhausts_shortfall(self, path3):
        # eta = 3 and the certain world activates exactly 3 nodes: the
        # shortfall must floor at 0 and `finished` must flip true.
        phi = ICRealization(path3, np.ones(path3.m, dtype=bool))
        session = AdaptiveSession(path3, eta=3, realization=phi)
        observation = session.observe([0])
        assert observation.shortfall_before == 3
        assert observation.marginal_spread == 3
        assert session.residual.shortfall == 0
        assert session.finished

    def test_overshooting_round_floors_shortfall(self, path3):
        phi = ICRealization(path3, np.ones(path3.m, dtype=bool))
        session = AdaptiveSession(path3, eta=2, realization=phi)
        session.observe([0])  # activates 3 > eta = 2
        assert session.residual.shortfall == 0
        assert session.finished

    def test_trim_single_node_fast_path_reports_zero_samples(self, ic_model):
        graph = generators.path_graph(1)
        selection, carry = TrimSelector(ic_model).select_with_pool(
            initial_residual(graph, 1), np.random.default_rng(0)
        )
        assert selection.nodes == [0]
        assert selection.diagnostics.samples_generated == 0
        assert selection.diagnostics.samples_carried == 0
        assert carry is None

    def test_single_node_rounds_aggregate_cleanly(self, ic_model, tmp_path):
        # A run whose final rounds hit the n == 1 fast path must flow
        # through report/export aggregation without special-casing.
        from repro.experiments.config import quick_config
        from repro.experiments.export import write_sweep_csv, write_sweep_json
        from repro.experiments.harness import run_sweep

        config = quick_config(
            graph_n=40,
            realizations=2,
            algorithms=("ASTI",),
            eta_fractions=(0.9,),
            max_samples=2_000,
        )
        sweep = run_sweep(config)
        outcome = sweep.outcomes[sweep.eta_values[0]]["ASTI"]
        assert all(run.achieved for run in outcome.runs)
        rows = write_sweep_csv(sweep, tmp_path / "runs.csv")
        assert rows == len(outcome.runs)
        write_sweep_json(sweep, tmp_path / "summary.json")
        assert (tmp_path / "summary.json").exists()

    def test_max_rounds_exhaustion_raises_not_hangs(self, ic_model):
        graph = generators.path_graph(6, probability=0.01)
        phis = [
            ICRealization(graph, np.zeros(graph.m, dtype=bool))
            for _ in range(2)
        ]
        with pytest.raises(ConfigurationError, match="exceeded 2 rounds"):
            run_adaptive_policy_batch(
                graph, 5, ic_model, FirstNodeSelector(), phis,
                seeds=0, max_rounds=2,
            )

    def test_lt_model_batch(self, lt_model):
        graph = weighting.weighted_cascade(
            generators.preferential_attachment(100, 2, seed=4, directed=False)
        )
        phis = [lt_model.sample_realization(graph, seed=i) for i in range(3)]
        results = ASTI(lt_model).run_batch(graph, 10, phis, seeds=2)
        assert all(r.spread >= 10 for r in results)
