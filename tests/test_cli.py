"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.graph import generators
from repro.graph.io import write_edge_list


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_solve_requires_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--eta", "5"])


class TestDatasetsCommand:
    def test_prints_all_rows(self):
        code, text = run_cli(["datasets", "--n", "120"])
        assert code == 0
        for name in ("nethept-sim", "epinions-sim", "youtube-sim", "livejournal-sim"):
            assert name in text


class TestSolveCommand:
    def test_solve_on_dataset(self):
        code, text = run_cli(
            ["solve", "--dataset", "nethept-sim", "--n", "150", "--eta", "10",
             "--max-samples", "3000", "--seed", "1"]
        )
        assert code == 0
        assert "ASTI" in text
        assert "round 1" in text

    def test_solve_quiet(self):
        code, text = run_cli(
            ["solve", "--dataset", "nethept-sim", "--n", "150", "--eta", "5",
             "--max-samples", "3000", "--quiet"]
        )
        assert code == 0
        assert "round 1:" not in text  # the per-round log is suppressed

    def test_solve_batched(self):
        code, text = run_cli(
            ["solve", "--dataset", "nethept-sim", "--n", "150", "--eta", "10",
             "--batch-size", "4", "--max-samples", "3000"]
        )
        assert code == 0
        assert "ASTI-4" in text

    def test_solve_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(generators.star_graph(20, probability=1.0), path)
        code, text = run_cli(["solve", "--edge-list", str(path), "--eta", "10"])
        assert code == 0
        assert "1 seeds" in text

    def test_infeasible_eta_reports_error(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(generators.path_graph(3), path)
        code, _ = run_cli(["solve", "--edge-list", str(path), "--eta", "99"])
        assert code == 2


class TestSweepCommand:
    def test_sweep_with_exports(self, tmp_path):
        csv_path = tmp_path / "runs.csv"
        json_path = tmp_path / "summary.json"
        code, text = run_cli(
            [
                "sweep", "--dataset", "nethept-sim", "--n", "120",
                "--fractions", "0.05", "--algorithms", "ASTI,ATEUC",
                "--realizations", "2", "--max-samples", "3000",
                "--out-csv", str(csv_path), "--out-json", str(json_path),
            ]
        )
        assert code == 0
        assert "mean seed count" in text
        assert csv_path.exists()
        assert json_path.exists()


class TestEstimateCommand:
    def test_estimate_with_mc_cross_check(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(generators.star_graph(12, probability=1.0), path)
        code, text = run_cli(
            ["estimate", "--edge-list", str(path), "--eta", "3",
             "--seeds", "0", "--theta", "2000", "--mc-samples", "200"]
        )
        assert code == 0
        assert "mRR estimate" in text
        assert "Monte-Carlo cross-check" in text


ESTIMATE = ["estimate", "--dataset", "nethept-sim", "--n", "120", "--eta", "8"]


class TestMalformedValues:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (ESTIMATE + ["--seeds", "a,b"], "--seeds"),
            (ESTIMATE + ["--seeds", ","], "--seeds"),
            (["sweep", "--dataset", "nethept-sim", "--fractions", "abc"],
             "--fractions"),
            (["solve", "--edge-list", "/nonexistent/graph.txt", "--eta", "3"],
             "/nonexistent/graph.txt"),
            (ESTIMATE + ["--seeds", "0", "--theta", "0"], "theta"),
            (ESTIMATE + ["--seeds", "0", "--mc-samples", "-3"], "mc_samples"),
        ],
        ids=["seeds", "empty-seeds", "fractions", "edge-list", "theta",
             "mc-samples"],
    )
    def test_one_error_line_no_traceback(self, argv, names, capsys):
        code, text = run_cli(argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert names in err


class TestJobsFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--dataset", "nethept-sim", "--n", "120", "--eta", "8",
             "--max-samples", "2000", "--jobs", "0"],
            ["sweep", "--dataset", "nethept-sim", "--n", "120",
             "--realizations", "2", "--jobs", "-3"],
            ["estimate", "--dataset", "nethept-sim", "--n", "120", "--eta", "8",
             "--seeds", "0", "--jobs", "0"],
        ],
    )
    def test_nonpositive_jobs_rejected_cleanly(self, argv, capsys):
        code, _ = run_cli(argv)
        assert code == 2
        assert "jobs" in capsys.readouterr().err

    def test_empty_pool_store_rejected_cleanly(self, capsys):
        # Path("") is the cwd — an empty --pool-store must error rather
        # than scatter store artifacts into the working tree.
        code, _ = run_cli(
            ["solve", "--dataset", "nethept-sim", "--n", "120", "--eta", "8",
             "--pool-store", ""]
        )
        assert code == 2
        assert "pool-store" in capsys.readouterr().err

    def test_solve_jobs_one_runs_chunk_seeded_in_process(self):
        code, text = run_cli(
            ["solve", "--dataset", "nethept-sim", "--n", "150", "--eta", "10",
             "--max-samples", "3000", "--seed", "1", "--jobs", "1", "--quiet"]
        )
        assert code == 0
        assert "ASTI" in text

    def test_estimate_jobs_matches_across_worker_counts(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(generators.star_graph(12, probability=1.0), path)
        argv = ["estimate", "--edge-list", str(path), "--eta", "3",
                "--seeds", "0", "--theta", "500"]
        _, one = run_cli(argv + ["--jobs", "1"])
        _, two = run_cli(argv + ["--jobs", "2"])
        assert one == two


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.stdio is False
        assert args.jobs == 1
        assert args.max_in_flight == 4
        assert args.max_queue == 16
        assert args.kernel_backend == "auto"
        assert args.chunk_timeout is None

    def test_bad_config_rejected_cleanly(self, capsys):
        code, _ = run_cli(["serve", "--max-in-flight", "0"])
        assert code == 2
        assert "max_in_flight" in capsys.readouterr().err


class TestKeyboardInterrupt:
    def test_exit_130_no_traceback(self, monkeypatch, capsys):
        # Ctrl-C anywhere inside a command must exit with the SIGINT
        # convention (128 + 2) and a one-line notice, never a traceback.
        from repro import cli

        def interrupted(args, out):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "datasets", interrupted)
        code, _ = run_cli(["datasets"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err
