"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library-specific failures with a
single ``except`` clause while letting programming errors (``TypeError``,
``KeyError``, ...) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation on it is invalid."""


class NodeNotFoundError(GraphError):
    """Raised when a node identifier is outside the graph's node range."""

    def __init__(self, node: int, n: int):
        self.node = node
        self.n = n
        super().__init__(f"node {node} is out of range for a graph with {n} nodes")


class EdgeError(GraphError):
    """Raised when an edge is malformed (bad endpoints or probability)."""


class ConfigurationError(ReproError):
    """Raised when user-supplied parameters are inconsistent or out of range."""


class DiffusionError(ReproError):
    """Raised when a diffusion model is used incorrectly."""


class ResourceError(ReproError):
    """Raised when an operation would exceed an explicit resource limit.

    The shared-memory layer raises this *before* handing a request to the
    operating system: a publication larger than the configured segment
    budget (or than the space left on the shm filesystem) fails here with
    the offending sizes spelled out, instead of surfacing as an opaque
    ``OSError`` from ``multiprocessing.shared_memory``.
    """


class ServiceError(ReproError):
    """Base class for the always-on service layer's request failures.

    Every subclass carries a stable wire ``code`` (see
    :mod:`repro.service.protocol`): the server converts these into typed
    NDJSON error replies instead of dropping the connection.
    """

    #: Stable machine-readable error code used in wire replies.
    code = "internal"


class SamplingError(ReproError):
    """Raised when sampling (RR / mRR set generation) is misconfigured."""


class BudgetExhaustedError(ReproError):
    """Raised when an algorithm exceeds an explicit resource budget.

    TRIM and friends are anytime algorithms with provable sample bounds, but
    pure-Python runs may want a hard cap on the number of generated sets;
    exceeding that cap (when ``strict=True``) raises this error.
    """


class InfeasibleTargetError(ReproError):
    """Raised when the influence target ``eta`` cannot be met.

    This happens when the realized reachable set of *all* nodes combined is
    smaller than the remaining target, e.g. ``eta > n`` or a disconnected
    realization with an unreachable shortfall.
    """

    def __init__(self, eta: int, achievable: int):
        self.eta = eta
        self.achievable = achievable
        super().__init__(
            f"target eta={eta} cannot be met: at most {achievable} nodes "
            f"are activatable under the observed realization"
        )
