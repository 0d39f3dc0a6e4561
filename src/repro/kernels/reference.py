"""Per-level labeled-BFS kernels, written once in njit-compatible Python.

This module is the single source of truth for the compiled backends: the
``python`` backend runs these functions as-is (interpreted — slow, but it
executes the *exact* code the compiled backend compiles, which is what the
cross-backend equivalence tests exercise on machines without numba), and
:mod:`repro.kernels.numba_backend` wraps each one in ``numba.njit``.

Every kernel implements one level of the shared labeled-BFS driver
(:func:`repro.diffusion.base.run_labeled_bfs`) in its fused ``expand`` form:
given the frontier ``(fsids, fnodes)`` and the flat visitation bitset, it
gathers the frontier's CSR edges, applies the model's per-level rule,
dedups first-encounter, marks ``visited`` in place, and returns the
**sorted** fresh ``sid * n + node`` keys.  Sorted-unique output plus
in-place marking is exactly what the numpy reference path produces with
``keys[~visited[keys]]`` / ``sorted_unique`` / ``visited[keys] = True``, so the
two routes are bit-identical by construction — including member order,
because the driver collects keys level by level in ascending key order
either way.

Randomness stays in the caller: the dispatch layer draws every uniform the
level needs from the caller's ``numpy.random.Generator`` *before* invoking
the kernel (one ``rng.random(k)`` per level, the same single draw the numpy
closures make), and passes the draw array in.  Kernels therefore never
touch RNG state, which is what keeps pools, CRN estimates, and adaptive
runs identical across backends for any (backend, jobs) combination.

Dtype contract: CSR ``indptr``/``targets``/``sources`` arrays may be int32
or int64 and ``probs`` float32 or float64 (the dtype-adaptive compact
storage); frontier arrays, keys, and flat world arrays are int64; ``draws``
and the LT accumulator/threshold arrays are float64.  All arithmetic below
promotes exactly as the numpy path does (int64 keys; float64 accumulation
with exact float32 upcasts), so compact storage changes nothing.
"""

from __future__ import annotations

import numpy as np


def ic_flip_level(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    probs: np.ndarray,
    n: int,
    visited: np.ndarray,
    fsids: np.ndarray,
    fnodes: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """One IC level: flip each frontier edge's coin, collect fresh nodes.

    Serves both directions — forward over the out-CSR and reverse over the
    in-CSR — since the rule is the same: edge ``pos`` fires when
    ``draws[pos_in_level] < probs[pos]``.  ``draws`` holds one uniform per
    frontier CSR edge, in frontier order (the order ``rng.random(k)``
    produces them for the numpy closure's single vectorized draw).
    """
    out = np.empty(draws.shape[0], np.int64)
    found = 0
    d = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        base = fsids[i] * n
        for pos in range(indptr[v], indptr[v + 1]):
            if draws[d] < probs[pos]:
                key = base + neighbors[pos]
                if not visited[key]:
                    visited[key] = True
                    out[found] = key
                    found += 1
            d += 1
    fresh = out[:found]
    fresh.sort()
    return fresh


def lt_walk_level(
    indptr: np.ndarray,
    sources: np.ndarray,
    cum: np.ndarray,
    n: int,
    visited: np.ndarray,
    fsids: np.ndarray,
    fnodes: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """One reverse-LT level: each frontier pair keeps at most one in-edge.

    ``cum`` is the float64 running sum of the in-CSR probabilities; the
    chosen position for draw ``x`` is the first whose within-row cumulative
    exceeds ``x`` (a draw past the row total keeps no edge).  The binary
    search below is ``np.searchsorted(cum, base + x, side="right")``
    written out, so chosen positions match the numpy path bit for bit.
    """
    out = np.empty(fnodes.shape[0], np.int64)
    found = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        start = indptr[v]
        if start > 0:
            x = cum[start - 1] + draws[i]
        else:
            x = 0.0 + draws[i]
        lo = 0
        hi = cum.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if x < cum[mid]:
                hi = mid
            else:
                lo = mid + 1
        if lo < indptr[v + 1]:
            key = fsids[i] * n + sources[lo]
            if not visited[key]:
                visited[key] = True
                out[found] = key
                found += 1
    fresh = out[:found]
    fresh.sort()
    return fresh


def lt_touch_level(
    indptr: np.ndarray,
    targets: np.ndarray,
    n: int,
    touched_before: np.ndarray,
    accumulated: np.ndarray,
    fsids: np.ndarray,
    fnodes: np.ndarray,
) -> np.ndarray:
    """Forward-LT phase 1: first-touch bookkeeping for a level's edges.

    Marks every ``(sim, target)`` pair touched for the first time, zeroes
    its accumulator slot, and returns the sorted fresh keys so the caller
    can draw their lazy thresholds (ascending key order — the same order
    ``sorted_unique`` hands the numpy closure its ``fresh`` array in, so the
    threshold stream is consumed identically).
    """
    total = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        total += indptr[v + 1] - indptr[v]
    out = np.empty(total, np.int64)
    found = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        base = fsids[i] * n
        for pos in range(indptr[v], indptr[v + 1]):
            key = base + targets[pos]
            if not touched_before[key]:
                touched_before[key] = True
                accumulated[key] = 0.0
                out[found] = key
                found += 1
    fresh = out[:found]
    fresh.sort()
    return fresh


def lt_cross_level(
    indptr: np.ndarray,
    targets: np.ndarray,
    probs: np.ndarray,
    n: int,
    accumulated: np.ndarray,
    thresholds: np.ndarray,
    visited: np.ndarray,
    fsids: np.ndarray,
    fnodes: np.ndarray,
) -> np.ndarray:
    """Forward-LT phase 2: accumulate weights, collect threshold crossers.

    Adds each frontier edge's weight to its ``(sim, target)`` accumulator
    in frontier-edge order — the element order ``np.add.at`` uses, and
    float64 ``+=`` float32 upcasts exactly, so the running sums match the
    numpy path bit for bit — then scans the level's touched keys in sorted
    order and returns those whose sum crossed their threshold and that are
    not yet active.
    """
    total = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        total += indptr[v + 1] - indptr[v]
    keys = np.empty(total, np.int64)
    count = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        base = fsids[i] * n
        for pos in range(indptr[v], indptr[v + 1]):
            key = base + targets[pos]
            accumulated[key] += probs[pos]
            keys[count] = key
            count += 1
    keys.sort()
    out = np.empty(count, np.int64)
    found = 0
    prev = -1
    for j in range(count):
        key = keys[j]
        if key == prev:
            continue
        prev = key
        if accumulated[key] >= thresholds[key] and not visited[key]:
            visited[key] = True
            out[found] = key
            found += 1
    return out[:found]


def replay_ic_level(
    indptr: np.ndarray,
    targets: np.ndarray,
    live_flat: np.ndarray,
    world: np.ndarray,
    m: int,
    n: int,
    allowed_flat: np.ndarray,
    visited: np.ndarray,
    fsids: np.ndarray,
    fnodes: np.ndarray,
) -> np.ndarray:
    """One deterministic IC replay level over pre-sampled live-edge worlds.

    ``world`` maps each sample id to its world index in the flat stacked
    live-edge matrix (identity for ``batch_reachable_from``, the job-to-
    world mapping for CRN sweeps); edge ``pos`` is traversed in sample
    ``sid`` when ``live_flat[world[sid] * m + pos]``.  ``allowed_flat`` is
    the flat ``sid * n + node`` residual mask, or empty for no restriction.
    """
    total = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        total += indptr[v + 1] - indptr[v]
    out = np.empty(total, np.int64)
    found = 0
    has_allowed = allowed_flat.shape[0] > 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        sid = fsids[i]
        wbase = world[sid] * m
        kbase = sid * n
        for pos in range(indptr[v], indptr[v + 1]):
            if live_flat[wbase + pos]:
                key = kbase + targets[pos]
                if has_allowed and not allowed_flat[key]:
                    continue
                if not visited[key]:
                    visited[key] = True
                    out[found] = key
                    found += 1
    fresh = out[:found]
    fresh.sort()
    return fresh


def replay_lt_level(
    indptr: np.ndarray,
    targets: np.ndarray,
    chosen_flat: np.ndarray,
    world: np.ndarray,
    n: int,
    allowed_flat: np.ndarray,
    visited: np.ndarray,
    fsids: np.ndarray,
    fnodes: np.ndarray,
) -> np.ndarray:
    """One deterministic LT replay level over pre-sampled chosen in-edges.

    Edge ``u -> v`` is live in sample ``sid`` exactly when ``v`` chose
    ``u`` in that sample's world: ``chosen_flat[world[sid] * n + v] == u``.
    Same ``world`` / ``allowed_flat`` conventions as
    :func:`replay_ic_level`.
    """
    total = 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        total += indptr[v + 1] - indptr[v]
    out = np.empty(total, np.int64)
    found = 0
    has_allowed = allowed_flat.shape[0] > 0
    for i in range(fnodes.shape[0]):
        v = fnodes[i]
        sid = fsids[i]
        wbase = world[sid] * n
        kbase = sid * n
        for pos in range(indptr[v], indptr[v + 1]):
            tgt = targets[pos]
            if chosen_flat[wbase + tgt] == v:
                key = kbase + tgt
                if has_allowed and not allowed_flat[key]:
                    continue
                if not visited[key]:
                    visited[key] = True
                    out[found] = key
                    found += 1
    fresh = out[:found]
    fresh.sort()
    return fresh


#: The kernel names every backend must export (the registry checks this).
KERNEL_NAMES = (
    "ic_flip_level",
    "lt_walk_level",
    "lt_touch_level",
    "lt_cross_level",
    "replay_ic_level",
    "replay_lt_level",
)
