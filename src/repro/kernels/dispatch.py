"""Expander factories bridging kernel backends into the BFS driver.

The labeled-BFS driver's ``expand`` mode hands the kernel the visitation
bitset and the current frontier and expects back the sorted fresh keys
(already marked).  Each factory below closes over one engine call's fixed
state — the CSR arrays, the caller's RNG, flat world/allowed arrays — and
returns that ``expand(visited, fsids, fnodes)`` callable for a resolved
non-numpy backend.

Randomness discipline: a factory draws exactly the uniforms the numpy
closure would draw for the level, with the same single vectorized
``rng.random(k)`` call, *before* invoking the kernel.  The kernel consumes
them in the same element order the vectorized comparison would, which is
what makes backends interchangeable bit for bit.

Every kernel invocation is timed and tallied into
:data:`repro.kernels.KERNEL_TELEMETRY`; for numba dispatchers, a call that grew
the dispatcher's compiled-signature set is attributed as JIT compile time
(the per-dtype lazy compilation of the adaptive CSR storage shows up here).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any, Optional

import numpy as np

from repro.kernels import KernelBackend, note_call

#: The ``expand(visited, fsids, fnodes) -> fresh_keys`` callable the
#: labeled-BFS driver consumes.
Expander = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _timed(driver: str, fn: Callable[..., Any], *args: Any) -> Any:
    signatures = getattr(fn, "signatures", None)
    before = len(signatures) if signatures is not None else 0
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    after = len(signatures) if signatures is not None else 0
    note_call(driver, elapsed, after > before)
    return result


_EMPTY_ALLOWED = np.empty(0, dtype=bool)


def ic_coin_expander(
    backend: KernelBackend,
    driver: str,
    indptr: np.ndarray,
    neighbors: np.ndarray,
    probs: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> Expander:
    """IC coin-flip expander: forward over out-CSR, reverse over in-CSR."""
    fn = backend.kernels.ic_flip_level

    def expand(visited: np.ndarray, fsids: np.ndarray, fnodes: np.ndarray) -> np.ndarray:
        degrees = indptr[fnodes + 1] - indptr[fnodes]
        draws = rng.random(int(degrees.sum()))
        return _timed(
            driver, fn, indptr, neighbors, probs, n, visited, fsids, fnodes, draws
        )

    return expand


def lt_walk_expander(
    backend: KernelBackend,
    indptr: np.ndarray,
    sources: np.ndarray,
    cum: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> Expander:
    """Reverse-LT expander: one keep-at-most-one-in-edge walk step."""
    fn = backend.kernels.lt_walk_level

    def expand(visited: np.ndarray, fsids: np.ndarray, fnodes: np.ndarray) -> np.ndarray:
        draws = rng.random(len(fnodes))
        return _timed(
            "lt_reverse", fn, indptr, sources, cum, n, visited, fsids, fnodes, draws
        )

    return expand


def lt_forward_expander(
    backend: KernelBackend,
    indptr: np.ndarray,
    targets: np.ndarray,
    probs: np.ndarray,
    n: int,
    rng: np.random.Generator,
    thresholds: np.ndarray,
    accumulated: np.ndarray,
    touched_before: np.ndarray,
) -> Expander:
    """Forward-LT expander: first-touch bookkeeping, then threshold scan.

    Phase 1 (``lt_touch_level``) returns the level's fresh keys sorted
    ascending so the lazy threshold draw here consumes the stream in the
    exact order the numpy closure's ``sorted_unique`` ``fresh`` does;
    phase 2 (``lt_cross_level``) accumulates and collects the crossers.
    """
    touch = backend.kernels.lt_touch_level
    cross = backend.kernels.lt_cross_level

    def expand(visited: np.ndarray, fsids: np.ndarray, fnodes: np.ndarray) -> np.ndarray:
        fresh = _timed(
            "lt_forward", touch, indptr, targets, n, touched_before,
            accumulated, fsids, fnodes,
        )
        thresholds[fresh] = rng.random(len(fresh))
        return _timed(
            "lt_forward", cross, indptr, targets, probs, n, accumulated,
            thresholds, visited, fsids, fnodes,
        )

    return expand


def replay_expander(
    backend: KernelBackend,
    kind: str,
    indptr: np.ndarray,
    targets: np.ndarray,
    worlds_flat: np.ndarray,
    world: np.ndarray,
    m: int,
    n: int,
    allowed_flat: Optional[np.ndarray] = None,
) -> Expander:
    """Deterministic replay expander over pre-sampled worlds (IC or LT).

    The compiled route of
    :func:`~repro.diffusion.realization.replay_worlds`: ``world`` maps
    each job to its world index in ``worlds_flat`` and ``allowed_flat`` is
    the flat ``job * n + node`` mask, or ``None`` for no restriction.
    """
    allowed = _EMPTY_ALLOWED if allowed_flat is None else allowed_flat
    if kind == "ic":
        fn = backend.kernels.replay_ic_level

        def expand(visited: np.ndarray, fsids: np.ndarray, fnodes: np.ndarray) -> np.ndarray:
            return _timed(
                "replay_ic", fn, indptr, targets, worlds_flat, world, m, n,
                allowed, visited, fsids, fnodes,
            )

    else:
        fn = backend.kernels.replay_lt_level

        def expand(visited: np.ndarray, fsids: np.ndarray, fnodes: np.ndarray) -> np.ndarray:
            return _timed(
                "replay_lt", fn, indptr, targets, worlds_flat, world, n,
                allowed, visited, fsids, fnodes,
            )

    return expand
