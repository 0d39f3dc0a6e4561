"""Command-line interface.

Exposes the library's main workflows without writing Python::

    repro datasets                               # Table 2 for the stand-ins
    repro solve --dataset nethept-sim --eta 120  # one adaptive run
    repro sweep --dataset nethept-sim --model IC --out-csv runs.csv
    repro estimate --dataset nethept-sim --eta 50 --seeds 0,3,7
    repro serve --port 7411 --jobs 4              # the always-on service

Every subcommand accepts ``--seed`` for bit-reproducible runs and prints
plain text suitable for piping into files or diffing across machines.
Ctrl-C exits with status 130 after tearing down worker pools and shared
memory (``serve`` first drains its in-flight requests).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import Optional

from repro._version import __version__
from repro.core.asti import ASTI
from repro.diffusion.montecarlo import (
    DEFAULT_MC_BATCH_SIZE,
    estimate_truncated_spread,
)
from repro.errors import ConfigurationError, ReproError
from repro.experiments import datasets
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import write_sweep_csv, write_sweep_json
from repro.experiments.harness import run_sweep
from repro.experiments.report import format_series, format_table
from repro.graph import analysis
from repro.graph.io import read_edge_list
from repro.kernels import KERNEL_BACKENDS
from repro.parallel.runtime import FaultPolicy
from repro.runtime.context import DEFAULT_BATCH_SIZE, ExecutionContext
from repro.sampling.mrr import estimate_truncated_spread_mrr
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.utils.validation import check_positive_int, check_range


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree; split out so tests can probe it."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive seed minimization (SIGMOD 2019) toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    ds = commands.add_parser("datasets", help="summarize the stand-in datasets")
    ds.add_argument("--n", type=int, default=None, help="override node count")
    ds.add_argument("--seed", type=int, default=0)

    solve = commands.add_parser("solve", help="run one adaptive ASM instance")
    _add_graph_arguments(solve)
    solve.add_argument("--eta", type=int, required=True, help="influence target")
    solve.add_argument("--model", choices=("IC", "LT"), default="IC")
    solve.add_argument("--batch-size", type=int, default=1)
    solve.add_argument(
        "--sample-batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="(m)RR sets generated per vectorized engine call",
    )
    solve.add_argument(
        "--no-reuse-pool",
        dest="reuse_pool",
        action="store_false",
        help="rebuild the mRR pool from scratch every adaptive round "
        "instead of carrying re-validated sets across rounds",
    )
    solve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for mRR pool generation (omit for the "
        "historical single-stream path; any explicit value gives results "
        "that are identical for every worker count)",
    )
    _add_kernel_argument(solve)
    _add_store_arguments(solve)
    _add_fault_arguments(solve)
    solve.add_argument("--epsilon", type=float, default=0.5)
    solve.add_argument("--max-samples", type=int, default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--quiet", action="store_true", help="suppress round log")

    sweep = commands.add_parser("sweep", help="run a paper-style threshold sweep")
    sweep.add_argument("--dataset", required=True, choices=datasets.dataset_names())
    sweep.add_argument("--model", choices=("IC", "LT"), default="IC")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument(
        "--fractions",
        default=None,
        help="comma-separated eta/n values (default: the dataset's paper sweep)",
    )
    sweep.add_argument(
        "--algorithms",
        default="ASTI,ASTI-4,ATEUC",
        help="comma-separated roster",
    )
    sweep.add_argument("--realizations", type=int, default=5)
    sweep.add_argument("--max-samples", type=int, default=None)
    sweep.add_argument(
        "--sample-batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="(m)RR sets generated per vectorized engine call",
    )
    sweep.add_argument(
        "--mc-batch-size",
        type=int,
        default=None,
        help="forward cascades per vectorized engine call for MC-based "
        "roster entries like CELF (default: engine-chosen)",
    )
    sweep.add_argument(
        "--mc-tolerance",
        type=float,
        default=None,
        help="stop MC-based estimates early once their 95%% CI half-width "
        "drops below this many nodes",
    )
    sweep.add_argument(
        "--no-reuse-pool",
        dest="reuse_pool",
        action="store_false",
        help="rebuild every adaptive round's mRR pool from scratch "
        "(paper-exact; the default carries re-validated sets across rounds)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes sharing the sweep's realizations (results "
        "are identical for any value; 1 = in-process)",
    )
    _add_kernel_argument(sweep)
    _add_store_arguments(sweep)
    _add_fault_arguments(sweep)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out-csv", default=None, help="write per-run rows")
    sweep.add_argument("--out-json", default=None, help="write aggregate summary")

    estimate = commands.add_parser(
        "estimate", help="estimate a seed set's truncated spread"
    )
    _add_graph_arguments(estimate)
    estimate.add_argument("--eta", type=int, required=True)
    estimate.add_argument("--model", choices=("IC", "LT"), default="IC")
    estimate.add_argument(
        "--seeds", required=True, help="comma-separated seed node ids"
    )
    estimate.add_argument("--theta", type=int, default=4000, help="mRR sets")
    estimate.add_argument("--mc-samples", type=int, default=0,
                          help="also run this many Monte-Carlo cascades")
    estimate.add_argument(
        "--mc-batch-size",
        type=int,
        default=DEFAULT_MC_BATCH_SIZE,
        help="forward cascades per vectorized engine call",
    )
    estimate.add_argument(
        "--mc-tolerance",
        type=float,
        default=None,
        help="stop the Monte-Carlo cross-check early once its 95%% CI "
        "half-width drops below this many nodes",
    )
    estimate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for mRR pool generation (omit for the "
        "historical single-stream path)",
    )
    _add_kernel_argument(estimate)
    _add_store_arguments(estimate)
    _add_fault_arguments(estimate)
    estimate.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve",
        help="run the always-on seed-selection service (NDJSON over TCP "
        "or stdio; see repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks an ephemeral port, announced on startup)",
    )
    serve.add_argument(
        "--stdio", action="store_true",
        help="serve one NDJSON session on stdin/stdout instead of TCP",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes shared across requests (1 = in-process; "
        "responses are bit-identical for any value)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4,
        help="requests computing concurrently; more wait in the queue",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="admitted requests allowed to wait beyond --max-in-flight; "
        "past that a request gets a typed 'overloaded' reply",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
        help="in-memory LRU byte budget for cached graphs and finished "
        "mRR pools (a pool hit replays the cold run's pool as is)",
    )
    serve.add_argument(
        "--pool-store", default=None, metavar="PATH",
        help="persistent artifact store directory: estimates write their "
        "mRR pools through it, so after a restart an estimate loads its "
        "pool instead of resampling it (omit to keep the cache memory-only)",
    )
    _add_kernel_argument(serve)
    _add_fault_arguments(serve)
    return parser


def _add_kernel_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--kernel-backend",
        choices=KERNEL_BACKENDS,
        default="auto",
        help="per-level labeled-BFS kernels: 'auto' uses the compiled "
        "backend when numba is installed and the graph is large enough, "
        "'numba' requires it, 'numpy' pins the vectorized reference "
        "(outputs are bit-identical across backends)",
    )


def _add_store_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--pool-store",
        default=None,
        metavar="PATH",
        help="persistent artifact store directory: (m)RR pools and CRN "
        "realization batches are cached there keyed by their exact "
        "generation recipe, so repeated runs skip regeneration with "
        "bit-identical results (omit to disable)",
    )


def _add_fault_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="seconds the parallel supervisor waits on one dispatched "
        "chunk before declaring its worker hung and rebuilding the pool "
        "(default: wait forever); once the rebuild budget is spent the "
        "surviving chunks finish in-process with bit-identical results; "
        "only meaningful with --jobs >= 2",
    )


def _add_graph_arguments(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=datasets.dataset_names())
    source.add_argument("--edge-list", help="path to a 'u v p' edge list file")
    sub.add_argument("--n", type=int, default=None, help="dataset size override")


def _load_graph(args):
    if args.dataset:
        return datasets.load_dataset(args.dataset, n=args.n, seed=args.seed)
    return read_edge_list(args.edge_list)


def _make_model(name: str):
    from repro.diffusion.ic import IndependentCascade
    from repro.diffusion.lt import LinearThreshold

    return IndependentCascade() if name == "IC" else LinearThreshold()


def _store_from_args(args):
    path = getattr(args, "pool_store", None)
    if path is None:
        return None
    if not str(path).strip():
        # Path("") is the current directory — refuse rather than scatter
        # store artifacts into the working tree.
        raise ConfigurationError(
            "--pool-store requires a directory path, got an empty string"
        )
    from repro.store import PoolStore

    return PoolStore(path)


def _context_from_args(args) -> ExecutionContext:
    """One :class:`ExecutionContext` per CLI invocation.

    All engine knobs funnel through the context's shared validators, so a
    bad ``--jobs`` or ``--sample-batch-size`` is rejected with exactly the
    same message the library raises (``repro.utils.validation``).
    """
    store = _store_from_args(args)
    fault_policy = FaultPolicy(chunk_timeout=getattr(args, "chunk_timeout", None))
    return ExecutionContext(
        sample_batch_size=getattr(args, "sample_batch_size", DEFAULT_BATCH_SIZE),
        mc_batch_size=getattr(args, "mc_batch_size", None),
        mc_tolerance=getattr(args, "mc_tolerance", None),
        reuse_pool=getattr(args, "reuse_pool", True),
        jobs=getattr(args, "jobs", None),
        kernel_backend=getattr(args, "kernel_backend", "auto"),
        fault_policy=fault_policy,
        pool_store=store,
    )


def _parse_list(text: str, cast: type, flag: str) -> list:
    """Split a comma-separated flag value; a malformed item or an empty
    list is a :class:`~repro.errors.ConfigurationError` (an ``error:``
    line)."""
    try:
        values = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigurationError(
            f"{flag} must be a comma-separated list of {cast.__name__}s, "
            f"got {text!r}"
        )
    return values


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _cmd_datasets(args, out) -> int:
    rows = []
    for name in datasets.dataset_names():
        graph = datasets.load_dataset(name, n=args.n, seed=args.seed)
        summary = analysis.summarize_graph(graph, name=name)
        spec = datasets.get_spec(name)
        rows.append(
            [
                name,
                spec.paper_name,
                summary.n,
                summary.m,
                round(summary.average_degree, 2),
                summary.lwcc_size,
            ]
        )
    print(
        format_table(
            ["dataset", "paper", "n", "m", "avg deg", "LWCC"],
            rows,
            title="Stand-in datasets (Table 2 analogue)",
        ),
        file=out,
    )
    return 0


def _cmd_solve(args, out) -> int:
    graph = _load_graph(args)
    model = _make_model(args.model)
    with _context_from_args(args) as context:
        result = ASTI(
            model,
            epsilon=args.epsilon,
            batch_size=args.batch_size,
            max_samples=args.max_samples,
            context=context,
        ).run(graph, args.eta, seed=args.seed)
    print(
        f"{result.policy_name}: {result.seed_count} seeds -> "
        f"{result.spread} influenced (target {args.eta}) "
        f"in {result.seconds:.2f}s over {len(result.rounds)} rounds",
        file=out,
    )
    if not args.quiet:
        for record in result.rounds:
            obs = record.observation
            seeds = ",".join(str(s) for s in obs.seeds)
            carried = (
                f" + {record.samples_carried} carried"
                if record.samples_carried
                else ""
            )
            print(
                f"  round {obs.round_index}: seeds [{seeds}] "
                f"+{obs.marginal_spread} influenced "
                f"({record.samples_generated} fresh{carried} mRR sets, "
                f"{record.seconds:.2f}s)",
                file=out,
            )
    return 0


def _cmd_sweep(args, out) -> int:
    fractions = (
        tuple(_parse_list(args.fractions, float, "--fractions"))
        if args.fractions
        else datasets.eta_fractions_for(args.dataset)
    )
    config = ExperimentConfig(
        dataset=args.dataset,
        model_name=args.model,
        eta_fractions=fractions,
        algorithms=tuple(part.strip() for part in args.algorithms.split(",")),
        realizations=args.realizations,
        graph_n=args.n,
        max_samples=args.max_samples,
        sample_batch_size=args.sample_batch_size,
        mc_batch_size=args.mc_batch_size,
        mc_tolerance=args.mc_tolerance,
        reuse_pool=args.reuse_pool,
        jobs=args.jobs,
        kernel_backend=args.kernel_backend,
        chunk_timeout=args.chunk_timeout,
        pool_store=args.pool_store,
        seed=args.seed,
    )
    sweep = run_sweep(config)
    for metric, title in (
        ("seeds", "mean seed count"),
        ("seconds", "mean seconds"),
        ("feasibility", "feasibility rate"),
    ):
        series = {alg: sweep.series(alg, metric) for alg in config.algorithms}
        print(
            format_series(
                "eta/n",
                list(fractions),
                series,
                title=f"{args.dataset} / {args.model}: {title}",
                precision=3,
            ),
            file=out,
        )
        print(file=out)
    if args.out_csv:
        count = write_sweep_csv(sweep, args.out_csv)
        print(f"wrote {count} rows to {args.out_csv}", file=out)
    if args.out_json:
        write_sweep_json(sweep, args.out_json)
        print(f"wrote summary to {args.out_json}", file=out)
    return 0


def _cmd_estimate(args, out) -> int:
    seeds = _parse_list(args.seeds, int, "--seeds")
    check_positive_int(args.theta, "theta")
    check_range(args.mc_samples, "mc_samples", 0)
    graph = _load_graph(args)
    model = _make_model(args.model)
    with _context_from_args(args) as context:
        return _estimate_with_context(args, out, graph, model, seeds, context)


def _estimate_with_context(args, out, graph, model, seeds, context) -> int:
    mrr = estimate_truncated_spread_mrr(
        graph,
        model,
        seeds,
        args.eta,
        theta=args.theta,
        seed=args.seed,
        context=context,
    )
    print(
        f"mRR estimate of E[Gamma(S)] with eta={args.eta}, "
        f"theta={args.theta}: {mrr:.3f}",
        file=out,
    )
    print(
        "(Theorem 3.3: the truth lies in "
        f"[{mrr:.3f}, {mrr / (1 - 2.718281828 ** -1):.3f}] up to sampling noise)",
        file=out,
    )
    if args.mc_samples > 0:
        mc = estimate_truncated_spread(
            graph,
            model,
            seeds,
            args.eta,
            samples=args.mc_samples,
            seed=args.seed,
            context=context,
        )
        print(
            f"Monte-Carlo cross-check ({mc.samples} cascades): "
            f"{mc.mean:.3f} +/- {1.96 * mc.std_error:.3f}",
            file=out,
        )
    return 0


def _cmd_serve(args, out) -> int:
    from repro.service.server import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        jobs=args.jobs,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        cache_bytes=args.cache_bytes,
        kernel_backend=args.kernel_backend,
        pool_store=args.pool_store,
        fault_policy=FaultPolicy(chunk_timeout=args.chunk_timeout),
    )
    # In stdio mode stdout carries the NDJSON replies, so the startup
    # banner must go to stderr; in TCP mode it goes to ``out`` where a
    # parent process can parse the announced port.
    log = sys.stderr if args.stdio else out
    return run_service(config, log=log)


_COMMANDS = {
    "datasets": _cmd_datasets,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except KeyboardInterrupt:
        # Ctrl-C: the command's context managers / the service's drain
        # path have already released worker pools and shared memory on
        # the way out; exit with the conventional SIGINT status, no
        # traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
