"""Reference rebuild of a carried mRR pool, the oracle for the carry tests.

:meth:`repro.sampling.mrr.CarriedMRRPool.revalidate` keeps the pool in
residual-local ids and updates coverage counts incrementally.  This module
keeps the straightforward rebuild it replaced: translate every member to
its original id, look each one up in the new residual, drop any set with a
missing member or an off-support root count, and repack the survivors.
Tests compare the two on the same pool; nothing on a production path
calls this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.graph.residual import ResidualGraph
    from repro.sampling.mrr import CarriedMRRPool


def rebuild_carried_pool(
    pool: CarriedMRRPool, residual: ResidualGraph
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(members, indptr, root_counts)`` of the survivors, in the new ids.

    ``None`` exactly when :meth:`CarriedMRRPool.revalidate` falls back to
    a from-scratch pool (infeasible shortfall or disjoint root-count
    support).  Members come back as int64.
    """
    from repro.sampling.mrr import RootCountRule

    if not 1 <= residual.shortfall <= residual.n:
        return None
    rule = RootCountRule.for_target(residual.n, residual.shortfall)
    k_valid = np.isin(pool.root_counts, np.asarray(rule.support(), dtype=np.int64))
    if len(pool) and not k_valid.any():
        return None

    original = pool.original_ids[pool.members]
    table_size = 1 + max(
        int(original.max(initial=-1)), int(residual.original_ids[-1])
    )
    local_of = np.full(table_size, -1, dtype=np.int64)
    local_of[residual.original_ids] = np.arange(residual.n, dtype=np.int64)
    position = local_of[original]
    inactive = (
        np.logical_and.reduceat(position >= 0, pool.indptr[:-1])
        if len(pool)
        else np.empty(0, dtype=bool)
    )
    keep = inactive & k_valid
    sizes = np.diff(pool.indptr)
    members = position[np.repeat(keep, sizes)]
    indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(sizes[keep], out=indptr[1:])
    return members, indptr, pool.root_counts[keep]
