"""Small array kernels shared by the BFS engines and the samplers."""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, sorted ascending.

    Same output (values and dtype) as ``np.unique(values)`` for 1-D
    integer input, but always a plain sort plus one adjacent-difference
    mask: on NumPy 2.x ``np.unique`` hashes before it sorts, which costs
    several times more per element on the BFS-level sizes the engines
    dedup.
    """
    keys = np.sort(values)
    if len(keys) < 2:
        return keys
    distinct = np.empty(len(keys), dtype=bool)
    distinct[0] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]
