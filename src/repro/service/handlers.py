"""Request handlers: pure compute, bit-identical to offline runs.

The server splits every request into three phases; this module is the
middle one, and the only one that runs off the event loop (in a worker
thread of the admission executor):

1. **plan** (event loop) — :func:`build_plan` validates ``params`` into a
   frozen plan carrying the cache keys;
2. **compute** (worker thread) — :func:`run_solve` / :func:`run_estimate`
   execute the plan against the library under a per-request
   :class:`~repro.runtime.context.ExecutionContext` derived from the
   request seed.  The result payload is a pure function of
   ``(op, seed, params)`` — warm pools, shared runtimes, pool rebuilds
   and degraded chunks can change *where* and *how fast* the work happens,
   never the bytes;
3. **settle** (event loop) — the server stores a fresh pool snapshot,
   drops a rejected one, and writes the reply.

Cross-request pool reuse: an estimate's finished mRR pool is exported
(:meth:`~repro.sampling.mrr.MRRCollection.export_carry`) against the full
graph's :func:`~repro.graph.residual.initial_residual` and offered to the
next request with the **exact same** pool key.  A hit is therefore a
replay of the cold run: :meth:`~repro.sampling.mrr.CarriedMRRPool.replay`
checks the snapshot's integrity and root-count support and installs it
as is.  A malformed or tampered snapshot (or one of the wrong size) is
discarded and the pool rebuilt from scratch, trading the speedup for
unchanged bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.core.asti import ASTI
from repro.diffusion.base import DiffusionModel
from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.experiments import datasets
from repro.graph.digraph import DiGraph
from repro.graph.residual import initial_residual
from repro.runtime.context import DEFAULT_BATCH_SIZE, ExecutionContext
from repro.sampling.mrr import CarriedMRRPool, MRRCollection
from repro.service.protocol import ProtocolError, Request

CacheKey = tuple[Any, ...]

#: How a request's pool carry-over went (reported in the reply envelope's
#: ``meta``, never in the deterministic ``result`` body).
CARRY_NONE = "none"        # no cached pool was offered
CARRY_ADOPTED = "adopted"  # the cached pool was replayed as is
CARRY_DISCARDED = "discarded"  # the cached pool was rejected; rebuilt fresh


def _require_int(
    params: dict[str, Any],
    name: str,
    request_id: str,
    *,
    minimum: int,
    default: Optional[int] = None,
    required: bool = False,
) -> Optional[int]:
    value = params.get(name, default)
    if value is None:
        if required:
            raise ProtocolError(f"params.{name} is required", request_id)
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ProtocolError(
            f"params.{name} must be an integer >= {minimum}, got {value!r}",
            request_id,
        )
    return value


def _graph_params(
    params: dict[str, Any], request_id: str
) -> tuple[str, Optional[int], int]:
    dataset = params.get("dataset")
    if dataset not in datasets.dataset_names():
        raise ProtocolError(
            f"params.dataset must be one of {datasets.dataset_names()}, "
            f"got {dataset!r}",
            request_id,
        )
    n = _require_int(params, "n", request_id, minimum=1)
    graph_seed = _require_int(params, "graph_seed", request_id, minimum=0, default=0)
    assert graph_seed is not None
    return dataset, n, graph_seed


def _model_name(params: dict[str, Any], request_id: str) -> str:
    model = params.get("model", "IC")
    if model not in ("IC", "LT"):
        raise ProtocolError(
            f"params.model must be 'IC' or 'LT', got {model!r}", request_id
        )
    return model


@dataclass(frozen=True)
class EstimatePlan:
    """A validated ``estimate`` request, ready to compute."""

    seed: int
    dataset: str
    n: Optional[int]
    graph_seed: int
    model_name: str
    eta: int
    seeds: tuple[int, ...]
    theta: int
    batch_size: int

    @property
    def graph_key(self) -> CacheKey:
        return ("graph", self.dataset, self.n, self.graph_seed)

    @property
    def pool_key(self) -> CacheKey:
        # Exact replay key: every knob that shapes the sampling stream or
        # the chunk schedule is part of it, so a hit is bit-identical to
        # the cold run by construction (seeds queried are NOT part of the
        # key — the pool does not depend on them).
        return (
            "pool",
            self.dataset,
            self.n,
            self.graph_seed,
            self.model_name,
            self.eta,
            self.theta,
            self.seed,
            self.batch_size,
        )


@dataclass(frozen=True)
class SolvePlan:
    """A validated ``solve`` request, ready to compute."""

    seed: int
    dataset: str
    n: Optional[int]
    graph_seed: int
    model_name: str
    eta: int
    epsilon: float
    batch_size: int
    sample_batch_size: int
    max_samples: Optional[int]

    @property
    def graph_key(self) -> CacheKey:
        return ("graph", self.dataset, self.n, self.graph_seed)


Plan = Union[EstimatePlan, SolvePlan]


def build_plan(request: Request) -> Plan:
    """Validate ``request.params`` into a frozen compute plan."""
    params = request.params
    dataset, n, graph_seed = _graph_params(params, request.id)
    model_name = _model_name(params, request.id)
    eta = _require_int(params, "eta", request.id, minimum=1, required=True)
    assert eta is not None
    if request.op == "estimate":
        raw_seeds = params.get("seeds")
        if (
            not isinstance(raw_seeds, list)
            or not raw_seeds
            or not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in raw_seeds
            )
        ):
            raise ProtocolError(
                "params.seeds must be a non-empty list of node ids",
                request.id,
            )
        theta = _require_int(params, "theta", request.id, minimum=1, default=2000)
        batch = _require_int(
            params, "batch_size", request.id,
            minimum=1, default=DEFAULT_BATCH_SIZE,
        )
        assert theta is not None and batch is not None
        return EstimatePlan(
            seed=request.seed,
            dataset=dataset,
            n=n,
            graph_seed=graph_seed,
            model_name=model_name,
            eta=eta,
            seeds=tuple(raw_seeds),
            theta=theta,
            batch_size=batch,
        )
    if request.op == "solve":
        epsilon = params.get("epsilon", 0.5)
        if (
            not isinstance(epsilon, (int, float))
            or isinstance(epsilon, bool)
            or not 0.0 < float(epsilon) < 1.0
        ):
            raise ProtocolError(
                f"params.epsilon must be in (0, 1), got {epsilon!r}", request.id
            )
        batch = _require_int(params, "batch_size", request.id, minimum=1, default=1)
        sample_batch = _require_int(
            params, "sample_batch_size", request.id,
            minimum=1, default=DEFAULT_BATCH_SIZE,
        )
        assert batch is not None and sample_batch is not None
        return SolvePlan(
            seed=request.seed,
            dataset=dataset,
            n=n,
            graph_seed=graph_seed,
            model_name=model_name,
            eta=eta,
            epsilon=float(epsilon),
            batch_size=batch,
            sample_batch_size=sample_batch,
            max_samples=_require_int(params, "max_samples", request.id, minimum=1),
        )
    raise ProtocolError(f"op {request.op!r} takes no plan", request.id)


def load_graph(plan: Plan) -> DiGraph:
    """Load the plan's graph (deterministic in the graph key)."""
    return datasets.load_dataset(plan.dataset, n=plan.n, seed=plan.graph_seed)


def make_model(name: str) -> DiffusionModel:
    return IndependentCascade() if name == "IC" else LinearThreshold()


@dataclass(frozen=True)
class EstimateOutcome:
    """What the estimate compute hands back to the settle phase."""

    result: dict[str, Any]
    carry: Optional[CarriedMRRPool]  # a fresh snapshot to cache; None if adopted
    carry_status: str  # CARRY_NONE / CARRY_ADOPTED / CARRY_DISCARDED


def carried_pool_nbytes(pool: CarriedMRRPool) -> int:
    """The byte budget one cached pool snapshot charges.

    Every array the snapshot keeps alive counts, and a view counts its
    whole buffer: an exported pool's ``members`` and ``indptr`` are views
    into the exporting index's (larger) append buffers.
    """
    arrays = (
        pool.members, pool.indptr, pool.root_counts, pool.original_ids, pool.counts
    )
    return sum(_buffer_nbytes(array) for array in arrays)


def _buffer_nbytes(array: np.ndarray) -> int:
    base = array.base
    return int(base.nbytes if isinstance(base, np.ndarray) else array.nbytes)


def run_estimate(
    graph: DiGraph,
    plan: EstimatePlan,
    context: ExecutionContext,
    carry: Optional[CarriedMRRPool] = None,
) -> EstimateOutcome:
    """Compute one truncated-spread estimate (worker-thread phase).

    Mirrors :func:`repro.sampling.mrr.estimate_truncated_spread_mrr`
    exactly — same collection construction, same growth call, same
    estimator — so the response is bit-identical to that offline
    reference for the same ``(graph, plan, seed)`` regardless of the
    carry, the worker count, or any mid-request recovery.  ``context``
    carries the plan's ``batch_size`` as its ``sample_batch_size``.
    """
    collection = MRRCollection(
        graph,
        make_model(plan.model_name),
        plan.eta,
        seed=plan.seed,
        context=context,
    )
    carry_status = CARRY_NONE
    if carry is not None:
        replayed = carry.replay(plan.eta) if len(carry) == plan.theta else None
        if replayed is None:
            # A malformed or tampered entry cannot be an exact replay:
            # rebuild from scratch and let the server drop the entry.
            carry_status = CARRY_DISCARDED
        else:
            collection.adopt(*replayed)
            carry_status = CARRY_ADOPTED
    collection.grow_to(plan.theta)
    estimate = collection.estimated_truncated_spread(list(plan.seeds))
    result = {
        "estimate": estimate,
        "eta": plan.eta,
        "theta": plan.theta,
        "seeds": list(plan.seeds),
        "model": plan.model_name,
    }
    if carry_status == CARRY_ADOPTED:
        # The cached entry already is this pool; nothing to store again.
        return EstimateOutcome(result=result, carry=None, carry_status=carry_status)
    new_carry = collection.export_carry(initial_residual(graph, plan.eta))
    return EstimateOutcome(result=result, carry=new_carry, carry_status=carry_status)


def run_solve(
    graph: DiGraph, plan: SolvePlan, context: ExecutionContext
) -> dict[str, Any]:
    """Run one adaptive ASM instance (worker-thread phase).

    The result body carries everything deterministic about the run —
    seeds, spread, per-round marginals, sample counts — and nothing
    timing-dependent (wall-clock lives in the reply envelope).
    """
    algorithm = ASTI(
        make_model(plan.model_name),
        epsilon=plan.epsilon,
        batch_size=plan.batch_size,
        max_samples=plan.max_samples,
        context=context,
    )
    run = algorithm.run(graph, plan.eta, seed=plan.seed)
    return {
        "policy": run.policy_name,
        "eta": run.eta,
        "seeds": [int(s) for s in run.seeds],
        "seed_count": run.seed_count,
        "spread": int(run.spread),
        "achieved": bool(run.achieved_target),
        "rounds": len(run.rounds),
        "total_samples": int(run.total_samples),
        "total_samples_carried": int(run.total_samples_carried),
        "marginal_spreads": [int(m) for m in run.marginal_spreads],
        "model": plan.model_name,
    }
