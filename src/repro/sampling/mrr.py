"""Multi-root reverse reachable (mRR) sets — the paper's Section 3.3.

A random mRR set is the set of nodes that reach *any* of ``k`` uniformly
random roots in a random realization (Definition 3.2).  The associated
binary estimator::

    Gamma~(S) = eta  if S intersects the mRR set, else 0

is a biased-but-bounded estimator of the expected truncated spread
``E[Gamma(S)] = E[min{I(S), eta}]``:

    (1 - 1/e) * E[Gamma(S)]  <=  E[Gamma~(S)]  <=  E[Gamma(S)]

(Theorem 3.3), *provided* the root count ``k`` uses the paper's randomized
rounding: with ``k_low = floor(n/eta)`` and ``r = n/eta - k_low``, draw
``k = k_low + 1`` with probability ``r`` and ``k = k_low`` otherwise, so
that ``E[k] = n / eta`` exactly.  Fixing ``k`` at either integer weakens the
bounds (the Remark after Corollary 3.4; reproduced as an ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.errors import ConfigurationError, SamplingError
from repro.graph.digraph import DiGraph, csr_index_dtype, gather_csr_rows
from repro.graph.residual import ResidualGraph
from repro.runtime.context import ExecutionContext
from repro.sampling.coverage import CoverageIndex
from repro.sampling.engine import mrr_batch_sampler
from repro.utils.rng import RandomSource, as_generator


@dataclass(frozen=True)
class RootCountRule:
    """The randomized-rounding distribution of the root-set size ``k``.

    ``k_low`` and ``k_low + 1`` with ``Pr[k_low + 1] = fraction``; both
    values are clamped to ``[1, n]`` so root sampling without replacement is
    always possible.
    """

    k_low: int
    fraction: float
    n: int

    @classmethod
    def for_target(cls, n: int, eta: int) -> RootCountRule:
        """Build the rule with ``E[k] = n / eta`` (paper Theorem 3.3).

        In round ``i`` callers pass the residual values ``n_i`` and
        ``eta_i`` (Corollary 3.4).
        """
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if not 1 <= eta <= n:
            raise ConfigurationError(f"eta must be in [1, n={n}], got {eta}")
        expectation = n / eta
        k_low = int(expectation)
        fraction = expectation - k_low
        return cls(k_low=k_low, fraction=fraction, n=n)

    @classmethod
    def fixed(cls, k: int, n: int) -> RootCountRule:
        """Degenerate rule that always draws exactly ``k`` roots.

        Used by the rounding ablation and to recover vanilla RR sets
        (``k = 1``).
        """
        if not 1 <= k <= n:
            raise ConfigurationError(f"k must be in [1, n={n}], got {k}")
        return cls(k_low=k, fraction=0.0, n=n)

    @property
    def expectation(self) -> float:
        """``E[k]``."""
        return self.k_low + self.fraction

    def support(self) -> tuple[int, ...]:
        """The root counts this rule can produce, after clamping to [1, n].

        ``(k_low,)`` for a degenerate rule, ``(k_low, k_low + 1)``
        otherwise; adjacent rounds whose supports overlap can carry mRR
        sets across (the adaptive engine's pool-reuse validity check).
        """
        values = {min(max(self.k_low, 1), self.n)}
        if self.fraction > 0.0:
            values.add(min(max(self.k_low + 1, 1), self.n))
        return tuple(sorted(values))

    def draw(self, rng: np.random.Generator) -> int:
        """Sample one root count."""
        k = self.k_low + (1 if rng.random() < self.fraction else 0)
        return min(max(k, 1), self.n)


class MRRCollection:
    """Coverage index plus batched engine, with truncated-spread estimation.

    Pool growth runs through the vectorized
    :class:`~repro.sampling.engine.BatchSampler`.  ``rule`` overrides the
    root-count distribution (ablations only); by default it follows
    ``eta`` (:meth:`RootCountRule.for_target`).

    Per-set root counts are tracked alongside the index so a round's final
    pool can be exported (:meth:`export_carry`) and re-validated into the
    next round's pool (:meth:`adopt`) by the adaptive engine's cross-round
    carry-over.  Engine policy comes from ``context`` (see
    :class:`~repro.sampling.engine.BatchSampler`).
    """

    def __init__(
        self,
        graph: DiGraph,
        model: DiffusionModel,
        eta: int,
        seed: RandomSource = None,
        rule: RootCountRule = None,
        context: Optional[ExecutionContext] = None,
    ):
        if graph.n < 1:
            raise SamplingError("cannot sample mRR sets on an empty graph")
        if not 1 <= eta <= graph.n:
            raise SamplingError(
                f"eta must be in [1, n={graph.n}], got {eta}; an infeasible "
                f"shortfall should be caught before sampling"
            )
        self.graph = graph
        self.eta = int(eta)
        self.rule = rule if rule is not None else RootCountRule.for_target(graph.n, eta)
        self.engine = mrr_batch_sampler(
            graph, model, self.rule, as_generator(seed), context
        )
        self.index = CoverageIndex(graph.n)
        self._root_counts = np.empty(0, dtype=np.int64)
        self._adopted = 0

    def __len__(self) -> int:
        return len(self.index)

    @property
    def root_counts(self) -> np.ndarray:
        """Per-set root counts, aligned with the index (read-only view)."""
        return self._root_counts

    @property
    def adopted_count(self) -> int:
        """How many sets were carried over rather than freshly sampled."""
        return self._adopted

    @property
    def fresh_count(self) -> int:
        """How many sets this round actually paid for."""
        return len(self) - self._adopted

    def grow_to(self, theta: int) -> None:
        """Ensure the pool holds at least ``theta`` mRR sets (batched)."""
        missing = theta - len(self.index)
        if missing > 0:
            counts = self.engine.fill(self.index, missing)
            self._root_counts = np.concatenate([self._root_counts, counts])

    def adopt(self, index: CoverageIndex, root_counts: np.ndarray) -> None:
        """Seed an empty pool with carried-over sets.

        ``(index, root_counts)`` is what :meth:`CarriedMRRPool.revalidate`
        (or :meth:`CarriedMRRPool.replay`) returns: a coverage index over
        this round's residual-local ids, installed as is.  Must run before
        any fresh sampling, so carried and fresh sets share one index; the
        carried sets count toward :attr:`adopted_count`, not toward
        :attr:`fresh_count`.
        """
        if len(self.index):
            raise SamplingError("can only adopt carried sets into an empty pool")
        if index.n != self.index.n:
            raise SamplingError("carried sets belong to a graph of another size")
        if len(index) != len(root_counts):
            raise SamplingError("root_counts must have one entry per set")
        self.index = index
        self._root_counts = root_counts
        self._adopted = len(root_counts)

    def export_carry(self, residual: ResidualGraph) -> CarriedMRRPool:
        """Snapshot the pool for the next round, without copying members.

        ``residual`` must be the residual graph this pool was sampled on:
        the snapshot keeps its residual-local ids together with that
        residual's ``original_ids``, which is what
        :meth:`CarriedMRRPool.revalidate` maps them through.
        """
        if residual.n != self.index.n:
            raise SamplingError("export_carry needs the residual this pool was sampled on")
        members, indptr, counts = self.index.snapshot()
        return CarriedMRRPool(
            members=members,
            indptr=indptr,
            root_counts=self._root_counts,
            original_ids=residual.original_ids,
            counts=counts,
        )

    def estimated_truncated_spread(self, seeds: Sequence[int]) -> float:
        """``E[Gamma~(S)] ~ eta * Lambda_R(S) / |R|``.

        By Theorem 3.3 this estimates ``E[Gamma(S)]`` up to a factor in
        ``[1 - 1/e, 1]``.
        """
        if len(self.index) == 0:
            raise SamplingError("no mRR sets generated yet")
        coverage = self.index.coverage_of_set(seeds)
        return self.eta * coverage / len(self.index)


@dataclass(frozen=True)
class CarryDiagnostics:
    """What happened to a carried pool during re-validation."""

    sets_offered: int            # pool size at the end of the previous round
    sets_carried: int            # sets that survived both checks
    dropped_activated: int       # sets containing a newly activated member
    dropped_root_count: int      # inactive sets with an invalid root count
    fallback: Optional[str] = None  # reason for a full from-scratch rebuild

    @property
    def carried_fraction(self) -> float:
        if self.sets_offered == 0:
            return 0.0
        return self.sets_carried / self.sets_offered


@dataclass(frozen=True)
class CarriedMRRPool:
    """A round's final mRR pool, kept in the local ids of its residual.

    The carry-over invariant: conditioned on every member being still
    inactive, a stored set is an exact reverse sample on the shrunk
    residual graph — the live-edge coins among inactive nodes are
    unconditioned by the survival event (a cascade enters the set only
    through an activated->member edge, and survival means precisely that
    all such coins came up blocked).  What carry-over cannot preserve
    exactly is the *root* distribution: the next round's rule
    ``E[k] = n_{i+1} / eta_{i+1}`` may shift to a different support, and
    surviving roots are uniform only conditioned on survival.
    :meth:`revalidate` therefore drops every set whose stored root count
    falls outside the new rule's support, and triggers a full from-scratch
    fallback when the supports are disjoint (the carried root-count
    distribution cannot represent the new rule at all).

    ``members`` and ``indptr`` may be views into the exporting index's
    buffers; a snapshot treats every array as read-only.
    """

    members: np.ndarray        # packed member ids, local to the residual
    indptr: np.ndarray         # set boundaries, length len(self) + 1
    root_counts: np.ndarray    # per-set root count k
    original_ids: np.ndarray   # that residual's local -> original id map
    counts: np.ndarray         # per-node coverage counts of the pool

    def __len__(self) -> int:
        return len(self.root_counts)

    def _well_formed(self) -> bool:
        """Whether the arrays describe a pool revalidation can trust.

        O(sets + n) plus one min/max over the members: enough that no
        member can alias another node or index out of bounds.
        """
        members, indptr = self.members, self.indptr
        ids = self.original_ids
        if (
            members.ndim != 1
            or members.dtype.kind != "i"
            or indptr.ndim != 1
            or indptr.dtype.kind != "i"
            or len(indptr) != len(self.root_counts) + 1
            or indptr[0] != 0
            or indptr[-1] != len(members)
            or (len(indptr) > 1 and (np.diff(indptr) <= 0).any())
            or len(self.counts) != len(ids)
            or (len(ids) > 1 and (np.diff(ids) <= 0).any())
        ):
            return False
        return not len(members) or (members.min() >= 0 and members.max() < len(ids))

    def replay(self, eta: int) -> Optional[tuple[CoverageIndex, np.ndarray]]:
        """The pool as is, for a collection on the residual it was exported from.

        Returns ``(index, root_counts)`` ready for :meth:`MRRCollection.adopt`,
        or ``None`` when the arrays are malformed or a root count lies
        outside the support of ``RootCountRule.for_target(n, eta)``.  No
        member is remapped or dropped: the caller guarantees the exact
        residual and target, so this is only an integrity check.
        """
        n = len(self.original_ids)
        if not 1 <= eta <= n or not self._well_formed():
            return None
        if self.members.dtype != csr_index_dtype(n, 0):
            return None
        support = RootCountRule.for_target(n, eta).support()
        k = self.root_counts
        if len(k) and (k.min() < support[0] or k.max() > support[-1]):
            return None
        index = CoverageIndex.from_packed(
            n, self.members, self.indptr, len(self), self.counts.copy()
        )
        return index, k

    def revalidate(
        self, residual: ResidualGraph
    ) -> tuple[Optional[tuple[CoverageIndex, np.ndarray]], CarryDiagnostics]:
        """Filter the pool against a new residual graph and shortfall.

        Returns ``((index, root_counts), diagnostics)`` with the surviving
        sets in a coverage index over the new residual's local ids (ready
        for :meth:`MRRCollection.adopt`), or ``(None, diagnostics)`` when
        carry-over must fall back to a from-scratch pool (see
        ``diagnostics.fallback`` for the reason).

        One gather maps every member through an old-local -> new-local
        table; sets with a newly activated member are found from the few
        ``-1`` positions alone, and the survivors' coverage counts follow
        from the old counts minus the dropped sets' surviving members.
        """
        offered = len(self)
        if not 1 <= residual.shortfall <= residual.n:
            # The selector will raise InfeasibleTargetError (or finish)
            # before sampling; don't pretend the carried sets are valid.
            return None, CarryDiagnostics(
                offered, 0, 0, 0, fallback="infeasible shortfall"
            )
        if not self._well_formed():
            return None, CarryDiagnostics(
                offered, 0, 0, 0, fallback="corrupt carried pool"
            )
        rule = RootCountRule.for_target(residual.n, residual.shortfall)
        # The support is one integer or two adjacent ones: a range test.
        support = rule.support()
        k_valid = (self.root_counts >= support[0]) & (self.root_counts <= support[-1])
        if offered and not k_valid.any():
            return None, CarryDiagnostics(
                offered,
                0,
                0,
                offered,
                fallback="root-count regime shifted off the carried support",
            )

        # Gather once, straight into a buffer with room for the round's
        # top-up: the next pool usually regrows to about this one's size.
        # The members are in range (checked above), so "clip" never clips;
        # it only spares the temporary copy that "raise" makes of ``out``.
        n = residual.n
        table = _local_id_table(self.original_ids, residual.original_ids)
        size = len(self.members)
        members = np.empty(size + size // 8 + 1, dtype=table.dtype)
        mapped = np.take(table, self.members, out=members[:size], mode="clip")
        dead_at = np.flatnonzero(mapped < 0)
        dead = np.zeros(offered, dtype=bool)
        dead[np.searchsorted(self.indptr, dead_at, side="right") - 1] = True
        keep = k_valid & ~dead
        kept = int(keep.sum())

        indptr = np.zeros(offered + offered // 8 + 2, dtype=np.int64)
        survivors = np.flatnonzero(table >= 0)
        counts = np.zeros(n, dtype=np.int64)
        counts[table[survivors]] = self.counts[survivors]
        root_counts = self.root_counts
        if kept == offered:
            indptr[: offered + 1] = self.indptr
        else:
            np.cumsum(np.diff(self.indptr)[keep], out=indptr[1 : kept + 1])
            dropped_at = gather_csr_rows(self.indptr, np.flatnonzero(~keep))
            lost = mapped[dropped_at]
            counts -= np.bincount(lost[lost >= 0], minlength=n)
            retained = np.ones(size, dtype=bool)
            retained[dropped_at] = False
            members[: indptr[kept]] = mapped[retained]
            root_counts = root_counts[keep]
        diagnostics = CarryDiagnostics(
            sets_offered=offered,
            sets_carried=kept,
            dropped_activated=int(dead.sum()),
            dropped_root_count=int((~dead & ~k_valid).sum()),
        )
        index = CoverageIndex.from_packed(n, members, indptr, kept, counts)
        return (index, root_counts), diagnostics


def _local_id_table(old_ids: np.ndarray, new_ids: np.ndarray) -> np.ndarray:
    """Old-local -> new-local id table, ``-1`` where a node left the residual.

    ``new_ids`` is a residual's sorted ``original_ids``; the table comes out
    at the new residual's compact member dtype, so gathering members
    through it lands them directly in that width.
    """
    dtype = csr_index_dtype(len(new_ids), 0)
    position = np.searchsorted(new_ids, old_ids)
    np.minimum(position, len(new_ids) - 1, out=position)
    present = new_ids[position] == old_ids
    return np.where(present, position, -1).astype(dtype, copy=False)


def build_round_pool(
    residual: ResidualGraph,
    model: DiffusionModel,
    rng: np.random.Generator,
    carry: Optional[CarriedMRRPool] = None,
    context: Optional[ExecutionContext] = None,
) -> tuple[MRRCollection, CarryDiagnostics]:
    """One round's mRR pool, optionally pre-loaded from the previous round.

    The prologue of a TRIM/TRIM-B round with pool reuse enabled: build
    the :class:`MRRCollection` for ``(residual.graph, residual.shortfall)``,
    and when a :class:`CarriedMRRPool` is offered, adopt every set that
    survives :meth:`CarriedMRRPool.revalidate` before any fresh sampling.
    ``context`` supplies the engine policy and receives the pool tallies.
    """
    if context is None:
        context = ExecutionContext()
    pool = MRRCollection(
        residual.graph, model, residual.shortfall, seed=rng, context=context
    )
    context.telemetry.add("mrr_pools_built")
    if carry is None:
        return pool, CarryDiagnostics(0, 0, 0, 0)
    kept, diagnostics = carry.revalidate(residual)
    if kept is not None:
        pool.adopt(*kept)
    context.telemetry.add("mrr_sets_carried", diagnostics.sets_carried)
    context.telemetry.add("mrr_sets_dropped", diagnostics.sets_offered - diagnostics.sets_carried)
    return pool, diagnostics


def estimate_truncated_spread_mrr(
    graph: DiGraph,
    model: DiffusionModel,
    seeds: Sequence[int],
    eta: int,
    theta: int = 2000,
    seed: RandomSource = None,
    rule: RootCountRule = None,
    context: Optional[ExecutionContext] = None,
) -> float:
    """One-shot convenience: generate ``theta`` mRR sets and estimate.

    Used by tests, examples, and the rounding ablation; production code
    should reuse an :class:`MRRCollection` across queries instead.
    ``context`` supplies the batching/parallelism policy: with ``jobs``
    set, pool generation takes the chunk-seeded parallel scheme and yields
    the same estimate for every worker count.
    """
    collection = MRRCollection(graph, model, eta, seed, rule, context)
    collection.grow_to(theta)
    return collection.estimated_truncated_spread(seeds)
