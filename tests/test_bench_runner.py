"""The benchmark runner: flattening, declarative rows, exit codes, records."""

from __future__ import annotations

import fnmatch
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import run  # noqa: E402


def suite(result, checks=(), gates=()):
    """A stand-in suite module whose ``measure`` returns ``result``."""
    return SimpleNamespace(
        QUICK={},
        FULL={},
        measure=lambda profile, seed=0: result,
        CHECKS=tuple(checks),
        GATES=tuple(gates),
    )


class TestFlatten:
    def test_nested_dicts_join_with_slashes(self):
        tree = {"graph_n": 5, "legs": {"cold": {"p50_ms": 1.5, "ok": True}}}
        assert run.flatten(tree) == {
            "graph_n": 5,
            "legs/cold/p50_ms": 1.5,
            "legs/cold/ok": True,
        }

    def test_case_names_with_slashes_stay_in_the_path(self):
        tree = {"cases": {"IC/mrr": {"speedup": 4.2}, "pool/IC-mrr": {"x": None}}}
        assert run.flatten(tree) == {
            "cases/IC/mrr/speedup": 4.2,
            "cases/pool/IC-mrr/x": None,
        }

    def test_lists_are_leaves(self):
        assert run.flatten({"sweep": {"seed_counts": [3, 4]}}) == {
            "sweep/seed_counts": [3, 4]
        }


class TestJudge:
    METRICS = {"cases/a/speedup": 2.0, "cases/b/speedup": 3.0, "ok": True}

    @pytest.mark.parametrize(
        "op, bound, verdict",
        [
            (">=", 2.0, "pass"),
            (">=", 2.5, "fail"),
            ("<=", 3.0, "pass"),
            ("<=", 2.5, "fail"),
            ("<", 3.5, "pass"),
            ("<", 3.0, "fail"),
        ],
    )
    def test_each_comparison(self, op, bound, verdict):
        _, got, _ = run.judge(("cases/*/speedup", op, bound), self.METRICS, {})
        assert got == verdict

    def test_equality(self):
        assert run.judge(("ok", "==", True), self.METRICS, {})[1] == "pass"
        assert run.judge(("ok", "==", False), self.METRICS, {})[1] == "fail"

    def test_failing_paths_are_named(self):
        _, verdict, failing = run.judge(
            ("cases/*/speedup", ">=", 2.5), self.METRICS, {}
        )
        assert verdict == "fail" and failing == ["cases/a/speedup=2.0"]

    def test_row_matching_nothing_fails(self):
        _, verdict, _ = run.judge(("cases/*/renamed", ">=", 1.0), self.METRICS, {})
        assert verdict == "fail"

    def test_none_values_are_skipped(self):
        metrics = {"cases/a/speedup": None, "cases/b/speedup": None}
        assert run.judge(("cases/*/speedup", ">=", 9.0), metrics, {})[1] == "skipped"

    def test_none_beside_a_real_value_is_not_judged(self):
        metrics = {"cases/a/speedup": None, "cases/b/speedup": 3.0}
        assert run.judge(("cases/*/speedup", ">=", 2.0), metrics, {})[1] == "pass"

    def test_string_bound_reads_the_profile(self):
        label, verdict, _ = run.judge(
            ("cases/*/speedup", ">=", "min_speedup"), self.METRICS,
            {"min_speedup": 2.5},
        )
        assert verdict == "fail" and label == "cases/*/speedup >= 2.5"


class TestRun:
    FAILING_ROW = ("speedup", ">=", 5.0)
    PASSING_ROW = ("speedup", ">=", 1.0)

    def test_failed_check_exits_nonzero_without_gate(self, tmp_path):
        module = suite({"speedup": 2.0}, checks=[self.FAILING_ROW])
        assert run.run("toy", module, path=tmp_path / "t.json") == 1

    def test_failed_gate_exits_nonzero_only_with_gate(self, tmp_path):
        module = suite(
            {"speedup": 2.0}, checks=[self.PASSING_ROW], gates=[self.FAILING_ROW]
        )
        path = tmp_path / "t.json"
        assert run.run("toy", module, gate=False, path=path) == 0
        assert run.run("toy", module, gate=True, path=path) == 1

    def test_passing_rows_exit_zero_with_gate(self, tmp_path):
        module = suite({"speedup": 2.0}, gates=[self.PASSING_ROW])
        assert run.run("toy", module, gate=True, path=tmp_path / "t.json") == 0

    def test_no_metrics_exits_nonzero_and_records_nothing(self, tmp_path):
        path = tmp_path / "t.json"
        assert run.run("toy", suite({}), path=path) == 1
        assert not path.exists()

    def test_append_keeps_earlier_records(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps([{"suite": "older"}]))
        module = suite(
            {"cases": {"IC/rr": {"speedup": 2.0}}},
            gates=[("cases/*/speedup", ">=", 1.0)],
        )
        run.run("toy", module, quick=True, seed=7, path=path)
        run.run("toy", module, path=path)
        history = json.loads(path.read_text())
        assert [r["suite"] for r in history] == ["older", "toy", "toy"]
        first = history[1]
        assert first["profile"] == "quick" and first["seed"] == 7
        assert history[2]["profile"] == "full"
        assert first["metrics"] == {"cases/IC/rr/speedup": 2.0}
        assert first["verdicts"] == {"cases/*/speedup >= 1.0": "pass"}
        assert set(first) == {
            "suite", "profile", "seed", "timestamp", "git_sha", "host",
            "metrics", "verdicts",
        }
        for record in history[1:]:
            assert set(record["host"]) == {"cpus", "numba", "numpy", "python"}
            assert record["host"]["cpus"] and record["host"]["numpy"]
        assert not list(tmp_path.glob(".t.json.*"))  # no stray temp file


TRAJECTORY = json.loads((REPO_ROOT / "BENCH_trajectory.json").read_text())


@pytest.mark.parametrize("name", run.SUITES)
def test_suite_rows_match_its_newest_record(name):
    module = importlib.import_module(f"bench_{name}")
    for attr in ("QUICK", "FULL", "measure", "CHECKS", "GATES"):
        assert hasattr(module, attr), attr
    newest = [r for r in TRAJECTORY if r["suite"] == name][-1]
    assert newest["host"]["cpus"] is not None
    for glob, op, _ in module.CHECKS + module.GATES:
        assert op in run.OPS
        assert any(fnmatch.fnmatchcase(path, glob) for path in newest["metrics"]), glob
