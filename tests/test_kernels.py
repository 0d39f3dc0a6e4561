"""Tests for the labeled-BFS kernel backend registry (``repro.kernels``).

Three contracts:

* **resolution** — ``"auto"`` silently falls back to numpy when numba is
  missing or the graph is too small, pinned ``"numba"`` fails loudly
  naming the missing extra, and every resolution is tallied;
* **bit-identity** — the kernel path (exercised through the interpreted
  ``"python"`` backend, and through ``"numba"`` where available) produces
  byte-for-byte the same pools, cascades, replays, CRN matrices, and
  adaptive seed sets as the vectorized numpy closures, for any worker
  count;
* **diagnostics** — ``ExecutionContext.diagnostics`` shows what the
  dispatch layer actually did since the context was built.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.kernels as kernels
from repro.core.asti import ASTI
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.diffusion.montecarlo import CRNSpreadEvaluator
from repro.diffusion.realization import batch_reachable_from
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import sample_shared_realizations
from repro.graph import generators, weighting
from repro.kernels import (
    AUTO_MIN_EDGES,
    KERNEL_BACKENDS,
    KERNEL_TELEMETRY,
    numba_available,
    resolve_backend,
)
from repro.kernels.reference import KERNEL_NAMES
from repro.runtime.context import ExecutionContext


@pytest.fixture(params=["IC", "LT"])
def model(request):
    return IndependentCascade() if request.param == "IC" else LinearThreshold()


@pytest.fixture
def graph():
    """A hub-heavy ~200-node graph above the auto-dispatch edge floor."""
    topology = generators.preferential_attachment(200, 3, seed=3, directed=False)
    graph = weighting.weighted_cascade(topology)
    assert graph.m >= AUTO_MIN_EDGES  # keeps the "auto" tests honest
    return graph


@pytest.fixture
def no_numba(monkeypatch):
    """Simulate a machine where importing numba fails."""
    monkeypatch.setattr(
        kernels, "_NUMBA_CACHE", (None, "ImportError: No module named 'numba'")
    )


@pytest.fixture
def fake_numba(monkeypatch):
    """Pretend numba imported fine (the interpreted kernels stand in)."""
    from repro.kernels import reference

    monkeypatch.setattr(kernels, "_NUMBA_CACHE", (reference, None))


class _GraphStub:
    def __init__(self, m):
        self.m = m


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------

class TestResolution:
    def test_knob_values_pinned(self):
        assert KERNEL_BACKENDS == ("auto", "numpy", "numba", "python")

    def test_numpy_keeps_the_closures(self):
        backend = resolve_backend("numpy")
        assert backend.name == "numpy"
        assert backend.kernels is None and not backend.compiled

    def test_python_backend_exposes_every_kernel(self):
        backend = resolve_backend("python")
        assert backend.name == "python" and not backend.compiled
        for kernel_name in KERNEL_NAMES:
            assert callable(getattr(backend.kernels, kernel_name))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            resolve_backend("cuda")

    def test_auto_without_numba_is_silently_numpy(self, no_numba, recwarn):
        backend = resolve_backend("auto", _GraphStub(m=10_000))
        assert backend.name == "numpy"
        assert len(recwarn) == 0  # graceful degradation, no noise

    def test_pinned_numba_without_numba_raises_naming_extra(self, no_numba):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("numba")
        message = str(excinfo.value)
        assert "pip install .[numba]" in message
        assert "No module named 'numba'" in message

    def test_auto_respects_the_edge_floor(self, fake_numba):
        assert resolve_backend("auto", _GraphStub(AUTO_MIN_EDGES - 1)).name == "numpy"
        assert resolve_backend("auto", _GraphStub(AUTO_MIN_EDGES)).name == "numba"
        assert resolve_backend("auto").name == "numba"  # no graph: trust the pin

    def test_resolutions_are_tallied(self):
        before = KERNEL_TELEMETRY.snapshot()
        resolve_backend("numpy")
        resolve_backend("python")
        resolve_backend("python")
        assert KERNEL_TELEMETRY.since(before) == {
            "resolved.numpy": 1, "resolved.python": 2,
        }

    def test_real_numba_probe_matches_import(self):
        try:
            import numba  # noqa: F401
            importable = True
        except ImportError:
            importable = False
        assert numba_available() == importable


class TestKnobValidation:
    def test_context_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            ExecutionContext(kernel_backend="bogus")

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            ExperimentConfig(dataset="nethept-sim", kernel_backend="bogus")

    def test_config_flows_into_context(self):
        config = ExperimentConfig(dataset="nethept-sim", kernel_backend="numpy")
        assert config.to_context().kernel_backend == "numpy"

    def test_context_pickles_with_backend(self):
        # Worker processes must inherit the knob (tasks pass it explicitly,
        # but the pickled context is the fallback contract).
        context = ExecutionContext(kernel_backend="python")
        assert pickle.loads(pickle.dumps(context)).kernel_backend == "python"

    def test_cli_flag_reaches_the_context(self):
        from repro.cli import _context_from_args, build_parser

        args = build_parser().parse_args(
            ["solve", "--dataset", "nethept-sim", "--eta", "5",
             "--kernel-backend", "numpy"]
        )
        assert _context_from_args(args).kernel_backend == "numpy"

    def test_cli_rejects_unknown_backend(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--dataset", "nethept-sim", "--eta", "5",
                 "--kernel-backend", "cuda"]
            )


class TestDiagnostics:
    def test_note_kernels_snapshots_dispatch_activity(self, graph):
        model = IndependentCascade()
        with ExecutionContext(kernel_backend="python") as context:
            model.simulate_batch(graph, [0], 8, seed=1, kernel="python")
            diag = context.diagnostics
        assert diag["kernel_backend"] == "python"
        assert diag["kernel_numba_available"] == numba_available()
        assert diag["kernel_calls"].get("ic_forward", 0) >= 1
        assert diag["kernel_backends_resolved"].get("python", 0) >= 1
        assert diag["kernel_jit_seconds"] >= 0.0

    def test_sweep_records_kernel_diagnostics(self):
        # Probe through the public run_sweep path at quick scale.
        from repro.experiments.config import quick_config
        from repro.experiments.harness import run_sweep

        before = KERNEL_TELEMETRY.snapshot()
        config = quick_config(
            graph_n=80, realizations=2, algorithms=("ASTI",),
            eta_fractions=(0.1,), max_samples=2000,
        )
        run_sweep(config)
        assert any(  # engines resolved backends
            key.startswith("resolved.") for key in KERNEL_TELEMETRY.since(before)
        )

    def test_sweep_counts_only_its_own_dispatches(self):
        # KERNEL_TELEMETRY is process-wide; each sweep must report the
        # difference from its own entry, so a repeat sweep records the
        # same diagnostics instead of the running process total.
        from repro.experiments.config import quick_config
        from repro.experiments.harness import run_sweep

        config = quick_config(
            graph_n=80, realizations=2, algorithms=("ASTI", "ATEUC"),
            eta_fractions=(0.1,), max_samples=2000,
        )
        first, second = (
            {
                k: v for k, v in run_sweep(config).diagnostics.items()
                if k.startswith("kernel_")
            }
            for _ in range(2)
        )
        assert first["kernel_backends_resolved"]
        for diagnostics in (first, second):
            del diagnostics["kernel_jit_seconds"]  # JIT falls on the first only
        assert first == second


# ----------------------------------------------------------------------
# Bit-identity: the kernel path against the numpy closures
# ----------------------------------------------------------------------

def _assert_packed_equal(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


class TestBitIdentity:
    def test_simulate_batch(self, model, graph):
        base = model.simulate_batch(graph, [0, 5], 50, seed=11, kernel="numpy")
        _assert_packed_equal(
            base, model.simulate_batch(graph, [0, 5], 50, seed=11, kernel="python")
        )

    def test_reverse_sample_batch(self, model, graph):
        roots = np.random.default_rng(2).integers(0, graph.n, 150, dtype=np.int64)
        roots_indptr = np.arange(151, dtype=np.int64)
        base = model.reverse_sample_batch(
            graph, roots, roots_indptr, np.random.default_rng(7), kernel="numpy"
        )
        _assert_packed_equal(
            base,
            model.reverse_sample_batch(
                graph, roots, roots_indptr, np.random.default_rng(7),
                kernel="python",
            ),
        )

    def test_lt_reverse_walk_sorted_search(self, graph):
        # 1,200 roots put every level's frontier past the size from which
        # the numpy walk searches its targets sorted.
        model = LinearThreshold()
        roots = np.random.default_rng(3).integers(0, graph.n, 1200, dtype=np.int64)
        roots_indptr = np.arange(0, 1201, 3, dtype=np.int64)
        base = model.reverse_sample_batch(
            graph, roots, roots_indptr, np.random.default_rng(8), kernel="numpy"
        )
        _assert_packed_equal(
            base,
            model.reverse_sample_batch(
                graph, roots, roots_indptr, np.random.default_rng(8),
                kernel="python",
            ),
        )

    @pytest.mark.parametrize("masked", [False, True])
    def test_batch_reachable_from(self, model, graph, masked):
        realizations = sample_shared_realizations(graph, model, 6, seed=4)
        seeds_per = [[i, (i * 7) % graph.n] for i in range(6)]
        allowed = None
        if masked:
            allowed = np.random.default_rng(9).random((6, graph.n)) < 0.8
            for i in range(6):
                allowed[i, seeds_per[i]] = True
        base = batch_reachable_from(
            realizations, seeds_per, allowed=allowed, kernel="numpy"
        )
        again = batch_reachable_from(
            realizations, seeds_per, allowed=allowed, kernel="python"
        )
        assert np.array_equal(base, again)

    def test_crn_spread_matrix(self, model, graph):
        sets = [[0], [0, 3], [1, 4, 9]]
        matrices = {}
        for name in ("numpy", "python"):
            with ExecutionContext(kernel_backend=name) as context:
                evaluator = CRNSpreadEvaluator(
                    graph, model, n_sims=25, seed=6, context=context
                )
                matrices[name] = evaluator.spread_matrix(sets)
        assert np.array_equal(matrices["numpy"], matrices["python"])

    def test_crn_spread_matrix_with_workers(self, graph):
        # (backend, jobs) grid: every combination bit-identical.
        model = IndependentCascade()
        sets = [[0], [2, 8]]
        expected = None
        for name in ("numpy", "python"):
            for jobs in (None, 2):
                with ExecutionContext(kernel_backend=name, jobs=jobs) as context:
                    evaluator = CRNSpreadEvaluator(
                        graph, model, n_sims=20, seed=13, context=context
                    )
                    matrix = evaluator.spread_matrix(sets)
                if expected is None:
                    expected = matrix
                assert np.array_equal(expected, matrix), (name, jobs)

    def test_adaptive_seed_sets(self, model, graph):
        realizations = sample_shared_realizations(graph, model, 2, seed=21)
        outcomes = {}
        for name in ("numpy", "python"):
            with ExecutionContext(kernel_backend=name) as context:
                results = ASTI(model, max_samples=4000, context=context).run_batch(
                    graph, 30, realizations, seeds=5
                )
            outcomes[name] = [
                (result.seeds, result.spread) for result in results
            ]
        assert outcomes["numpy"] == outcomes["python"]

    def test_adaptive_seed_sets_with_workers(self, graph):
        model = LinearThreshold()
        realizations = sample_shared_realizations(graph, model, 2, seed=22)
        outcomes = {}
        for name, jobs in (("numpy", None), ("python", 2)):
            with ExecutionContext(kernel_backend=name, jobs=jobs) as context:
                results = ASTI(model, max_samples=4000, context=context).run_batch(
                    graph, 25, realizations, seeds=8
                )
            outcomes[name] = [
                (result.seeds, result.spread) for result in results
            ]
        assert outcomes["numpy"] == outcomes["python"]


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCompiledBitIdentity:
    """The same identity contract against the actually-compiled kernels."""

    def test_simulate_batch(self, model, graph):
        base = model.simulate_batch(graph, [0, 5], 50, seed=11, kernel="numpy")
        _assert_packed_equal(
            base, model.simulate_batch(graph, [0, 5], 50, seed=11, kernel="numba")
        )

    def test_reverse_sample_batch(self, model, graph):
        roots = np.random.default_rng(2).integers(0, graph.n, 150, dtype=np.int64)
        roots_indptr = np.arange(151, dtype=np.int64)
        base = model.reverse_sample_batch(
            graph, roots, roots_indptr, np.random.default_rng(7), kernel="numpy"
        )
        _assert_packed_equal(
            base,
            model.reverse_sample_batch(
                graph, roots, roots_indptr, np.random.default_rng(7),
                kernel="numba",
            ),
        )

    def test_batch_reachable_from(self, model, graph):
        realizations = sample_shared_realizations(graph, model, 4, seed=4)
        seeds_per = [[i] for i in range(4)]
        base = batch_reachable_from(realizations, seeds_per, kernel="numpy")
        assert np.array_equal(
            base, batch_reachable_from(realizations, seeds_per, kernel="numba")
        )

    def test_jit_time_is_attributed(self, graph):
        before = KERNEL_TELEMETRY.snapshot()
        IndependentCascade().simulate_batch(graph, [0], 8, seed=1, kernel="numba")
        stats = KERNEL_TELEMETRY.since(before)
        assert stats.get("calls.ic_forward", 0) >= 1
