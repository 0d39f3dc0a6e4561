"""Fast self-test of the benchmark: every workload on its quick profile.

Run from the repository root::

    python -m pytest perfbench/selftest.py -q

It drives the real command (``perfbench/run.py --quick``) and checks the
output contract, the correctness checks and the traced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import PROFILES, Serve  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

#: Per-layer metrics each workload must exercise (non-zero when traced).
EXERCISED = {
    "solve-ic": (
        "core.select_s",
        "core.observe_s",
        "core.rounds",
        "sampling.roots_draw_s",
        "sampling.coverage_add_s",
        "sampling.revalidate_s",
        "sampling.export_s",
        "sampling.sets_fresh",
        "diffusion.reverse_bfs_s",
        "diffusion.bfs_levels",
        "diffusion.edges_scanned",
        "graph.shrink_s",
    ),
    "sweep": (
        "sampling.greedy_s",
        "diffusion.crn_s",
        "graph.fingerprint_s",
        "store.load_s",
        "store.save_s",
        "store.hits",
        "store.misses",
        "store.entries",
        "store.bytes",
        "parallel.map_s",
        "parallel.publish_s",
        "baselines.ateuc_s",
        "baselines.celf_s",
        "experiments.worlds_s",
        "sweep.cold_s",
        "sweep.warm_s",
    ),
    "serve": (
        "core.select_s",
        "sampling.roots_draw_s",
        "diffusion.reverse_bfs_s",
        "service.compute_ms_p50",
        "service.estimate_ms_p50",
        "service.solve_ms_p50",
        "service.carry_adopted_ratio",
        "service.cache_hits",
    ),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_contract(workload):
    record, result = parse(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    host = record["host"]
    assert {"nproc", "numba", "kernel_backend", "numpy", "python", "git_sha", "seed"} <= set(host)
    assert host["seed"] == 3
    assert "steal_ticks" in record and record["failed_ratio"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    _record, result = parse(run_bench(workload, trace=1))
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    missing = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert not missing, missing
    assert metrics["trace.wall_s"] > 0
    assert "trace.overhead_ratio" in metrics
    if workload == "solve-ic":
        assert metrics["trace.coverage"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    started = time.monotonic()
    proc = run_bench("solve-ic", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - started < 180


def test_serve_check_detects_a_wrong_reply(tmp_path):
    profile = PROFILES["quick"]["serve"]
    serve = Serve(profile, tmp_path)
    batch = next(serve.inputs(0))
    estimate = next(p for p in batch if p["op"] == "estimate")
    serve.answered = [(estimate, {"ok": True, "result": {"estimate": -1.0}})]
    failures = serve.finish()
    assert len(failures) == 1 and "differs" in failures[0]


def test_self_time_subtracts_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        tracer.span("inner", inner)
        time.sleep(0.01)

    tracer.span("outer", outer)
    table = tracer.summary()
    assert table["outer"]["calls"] == table["inner"]["calls"] == 1
    assert table["outer"]["total_s"] >= table["inner"]["total_s"] >= 0.02
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"]
    )
