"""The always-on seed-selection service.

A stdlib-asyncio NDJSON server over the library's solvers and
estimators, built for robustness: per-request monotonic deadlines,
bounded admission with typed load shedding, a byte-budget cache of
graphs and finished mRR pools (hits are exact replays), graceful
degradation to in-process execution when the worker pool exhausts its
fault budgets, and drain-then-exit shutdown.  Every response ``result``
is bit-identical to a cold offline ``jobs=1`` run of the same request
seed — see :mod:`repro.service.server` for the full contract.
"""

from repro.service.cache import ServiceCache
from repro.service.client import ServiceClient, ServiceThread
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPERATIONS,
    ProtocolError,
    Request,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
)
from repro.service.server import SeedService, ServiceConfig, run_service

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "OPERATIONS",
    "ProtocolError",
    "Request",
    "SeedService",
    "ServiceCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceThread",
    "encode_reply",
    "error_reply",
    "ok_reply",
    "parse_request",
    "run_service",
]
