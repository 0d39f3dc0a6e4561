"""The service wire protocol: newline-delimited JSON requests and replies.

One request per line, one reply per line, over TCP or stdio::

    {"op": "estimate", "id": "q1", "seed": 7,
     "params": {"dataset": "nethept-sim", "n": 300, "eta": 30,
                "seeds": [0, 3, 7], "theta": 2000}}
    {"id": "q1", "ok": true, "op": "estimate",
     "result": {"estimate": 21.9, ...}, "ms": 41.7}

Three operations: ``solve`` (one adaptive ASM run), ``estimate`` (mRR
truncated-spread estimate of a given seed set), and ``health`` (service
counters; bypasses admission control).  ``seed`` is the request's root
random seed — the whole response ``result`` body is a pure function of
``(op, seed, params)``, bit-identical to a cold offline ``jobs=1`` run of
the same request, which is what the chaos load gate asserts.  ``ms``
lives in the reply *envelope*, never in ``result``, so timing noise can
never leak into the deterministic payload.

A failed request is a typed error reply on the same line — the connection
is never dropped::

    {"id": "q1", "ok": false,
     "error": {"code": "overloaded", "message": "..."}}

Error codes (stable): ``invalid_request``, ``overloaded``,
``deadline_exceeded``, ``infeasible``, ``shutting_down``, ``internal``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ServiceError

#: Operations the server understands.
OPERATIONS = ("solve", "estimate", "health")

#: Stable wire error codes (the protocol contract; tests pin these).
ERROR_CODES = (
    "invalid_request",
    "overloaded",
    "deadline_exceeded",
    "infeasible",
    "shutting_down",
    "internal",
)

#: Hard ceiling on one request line; beyond this the request is rejected
#: (typed ``invalid_request``) before JSON parsing even starts.
MAX_LINE_BYTES = 1_000_000


class ProtocolError(ServiceError):
    """A request line that cannot be turned into a valid :class:`Request`."""

    code = "invalid_request"

    def __init__(self, message: str, request_id: Optional[str] = None):
        self.request_id = request_id
        super().__init__(message)


@dataclass(frozen=True)
class Request:
    """One parsed, validated request."""

    op: str
    id: str
    seed: int = 0
    deadline_ms: Optional[float] = None
    params: dict[str, Any] = field(default_factory=dict)


def parse_request(line: bytes) -> Request:
    """Decode and validate one request line.

    Raises :class:`ProtocolError` (carrying the request id when one could
    be recovered) on anything malformed; the server turns that into a
    typed ``invalid_request`` reply rather than closing the connection.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integer literals past
        # Python's digit limit; RecursionError, nesting past the stack.
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request 'id' must be a non-empty string")
    op = payload.get("op")
    if op not in OPERATIONS:
        raise ProtocolError(
            f"request 'op' must be one of {list(OPERATIONS)}, got {op!r}",
            request_id,
        )
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProtocolError(
            f"request 'seed' must be a non-negative integer, got {seed!r}",
            request_id,
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and not _finite_non_negative(deadline_ms):
        raise ProtocolError(
            f"request 'deadline_ms' must be a finite non-negative number or null, "
            f"got {deadline_ms!r}",
            request_id,
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            "request 'params' must be a JSON object", request_id
        )
    return Request(
        op=op,
        id=request_id,
        seed=seed,
        deadline_ms=None if deadline_ms is None else float(deadline_ms),
        params=params,
    )


def _finite_non_negative(value: Any) -> bool:
    """A JSON number in ``[0, inf)`` that converts to a float (no NaN, no
    infinity, no integer too large for a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return 0.0 <= float(value) < math.inf
    except OverflowError:
        return False


def ok_reply(
    request_id: str, op: str, result: dict[str, Any], ms: float
) -> dict[str, Any]:
    """A success envelope; ``result`` is the deterministic payload."""
    return {
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result,
        "ms": round(ms, 3),
    }


def error_reply(
    request_id: Optional[str],
    code: str,
    message: str,
    **details: Any,
) -> dict[str, Any]:
    """A typed error envelope (``id`` may be null for unparsable lines)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(details)
    return {"id": request_id, "ok": False, "error": error}


def encode_reply(reply: dict[str, Any]) -> bytes:
    """Serialize one reply to its wire line (sorted keys, one ``\\n``)."""
    return json.dumps(reply, sort_keys=True).encode("utf-8") + b"\n"
