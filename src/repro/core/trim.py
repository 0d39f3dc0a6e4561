"""TRIM: TRuncated Influence Maximization (paper Algorithm 2).

One round of ASTI must find a node whose expected marginal *truncated*
spread is within ``(1 - 1/e)(1 - epsilon)`` of the best possible.  TRIM is
TRIM-B (Algorithm 3) at ``b = 1``: ``rho_1 = 1`` and ``ln C(n, 1) = ln n``
turn Algorithm 3's Lines 1-5 into Algorithm 2's, and a one-node greedy
batch is the coverage argmax.  The round itself — grow, certify with
Lemma A.2, double — is :func:`repro.core.trim_b.certified_doubling`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.trim_b import TrimBSelector
from repro.diffusion.base import DiffusionModel
from repro.runtime.context import ExecutionContext


class TrimSelector(TrimBSelector):
    """Algorithm 2 as an ASTI-compatible selector: TRIM-B with ``b = 1``.

    Parameters are :class:`~repro.core.trim_b.TrimBSelector`'s without the
    batch size.  It inherits ``select_with_pool`` rather than redefining
    it: a profiler that wraps ``TrimSelector.select_with_pool`` and then
    ``TrimBSelector.select_with_pool`` sees each call once.
    """

    def __init__(
        self,
        model: DiffusionModel,
        epsilon: float = 0.5,
        max_samples: Optional[int] = None,
        strict_budget: bool = False,
        context: Optional[ExecutionContext] = None,
    ):
        super().__init__(model, 1, epsilon, max_samples, strict_budget, context)
        self.name = "TRIM"

    def __repr__(self) -> str:
        return f"TrimSelector(epsilon={self.epsilon})"
