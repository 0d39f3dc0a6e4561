"""Tests for the always-on seed-selection service.

Three layers: the wire protocol and cache in isolation (pure unit
tests), then end-to-end sessions against a real server on a background
thread (:class:`~repro.service.client.ServiceThread` — real sockets,
real admission control, real drain).  The load/chaos *scale* lives in
``benchmarks/bench_service_load.py``; here each robustness path gets one
deterministic exercise:

* responses are bit-identical to offline ``jobs=1`` library runs, warm
  or cold, corrupted cache or not, degraded or not;
* every failure is a typed reply on the open connection — malformed
  lines, infeasible targets, blown deadlines, shed load;
* drain delivers in-flight replies before the socket closes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro

from repro.core.asti import ASTI
from repro.diffusion.ic import IndependentCascade
from repro.errors import ConfigurationError, ServiceError
from repro.experiments import datasets
from repro.parallel.runtime import FaultPolicy
from repro.runtime.context import ExecutionContext
from repro.sampling.mrr import estimate_truncated_spread_mrr
from repro.service import (
    ERROR_CODES,
    ProtocolError,
    ServiceCache,
    ServiceConfig,
    ServiceThread,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
)
from repro.service.handlers import build_plan
from repro.service.protocol import MAX_LINE_BYTES, OPERATIONS, Request
from repro.testing.faults import FaultInjection, ServiceFaultInjection

DATASET = "nethept-sim"
N = 160
ETA = 16
THETA = 400

ESTIMATE_PARAMS = {
    "dataset": DATASET, "n": N, "eta": ETA,
    "seeds": [0, 3, 7], "theta": THETA,
}


#: Lines that once escaped ``parse_request`` as a non-protocol exception
#: (or, for the NaN deadline, were admitted): 100,000 nested arrays, a
#: seed past Python's digit limit for int parsing, and JSON's ``NaN``.
HOSTILE_LINES = {
    "deep-nesting": b"[" * 100_000,
    "huge-seed": b'{"op": "health", "id": "big", "seed": ' + b"9" * 5000 + b"}",
    "nan-deadline": b'{"op": "estimate", "id": "nan", "deadline_ms": NaN}',
}


def estimate_request(request_id: str, seed: int = 7, **overrides):
    payload = {
        "op": "estimate", "id": request_id, "seed": seed,
        "params": dict(ESTIMATE_PARAMS),
    }
    payload.update(overrides)
    return payload


@pytest.fixture(scope="module")
def offline_estimate():
    """The cold offline jobs=1 reference every service reply must match."""
    graph = datasets.load_dataset(DATASET, n=N, seed=0)
    with ExecutionContext(jobs=1) as context:
        return estimate_truncated_spread_mrr(
            graph, IndependentCascade(), [0, 3, 7], ETA,
            theta=THETA, seed=7, context=context,
        )


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        line = json.dumps({
            "op": "estimate", "id": "q1", "seed": 3,
            "deadline_ms": 250, "params": {"eta": 5},
        }).encode()
        request = parse_request(line)
        assert request == Request(
            op="estimate", id="q1", seed=3,
            deadline_ms=250.0, params={"eta": 5},
        )

    def test_defaults(self):
        request = parse_request(b'{"op": "health", "id": "h"}')
        assert request.seed == 0
        assert request.deadline_ms is None
        assert request.params == {}

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"[1, 2]",
            b'{"op": "estimate"}',                      # no id
            b'{"op": "estimate", "id": ""}',           # empty id
            b'{"op": "estimate", "id": 4}',            # non-string id
            b'{"op": "launch", "id": "q"}',            # unknown op
            b'{"op": "solve", "id": "q", "seed": -1}',
            b'{"op": "solve", "id": "q", "seed": true}',
            b'{"op": "solve", "id": "q", "deadline_ms": -5}',
            b'{"op": "solve", "id": "q", "params": []}',
            *(pytest.param(line, id=name) for name, line in HOSTILE_LINES.items()),
            pytest.param(b'{"op": "solve", "id": "q", "deadline_ms": Infinity}', id="inf-deadline"),
            pytest.param(
                b'{"op": "solve", "id": "q", "deadline_ms": 1' + b"0" * 400 + b"}",
                id="deadline-past-float",
            ),
        ],
    )
    def test_invalid_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_oversize_line_rejected_before_parsing(self):
        line = b'{"id": "' + b"x" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_request(line)

    def test_error_reply_pins_the_code_table(self):
        for code in ERROR_CODES:
            assert error_reply("q", code, "msg")["error"]["code"] == code
        with pytest.raises(ValueError):
            error_reply("q", "made-up", "msg")

    def test_encode_reply_is_one_line(self):
        wire = encode_reply(ok_reply("q", "health", {"status": "ok"}, 1.25))
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1
        assert json.loads(wire)["ms"] == 1.25

    def test_build_plan_pool_key_excludes_queried_seeds(self):
        # The pool is independent of which seed set is evaluated against
        # it, so two requests differing only in 'seeds' share a cache key.
        a = build_plan(parse_request(encode_reply(estimate_request("a"))[:-1]))
        b = build_plan(parse_request(json.dumps(
            estimate_request("b", params=dict(ESTIMATE_PARAMS, seeds=[1, 2]))
        ).encode()))
        assert a.pool_key == b.pool_key
        assert a.graph_key == b.graph_key

    def test_build_plan_rejects_bad_params(self):
        bad = dict(ESTIMATE_PARAMS, seeds=[])
        with pytest.raises(ProtocolError, match="seeds"):
            build_plan(parse_request(json.dumps(
                estimate_request("q", params=bad)).encode()))
        with pytest.raises(ProtocolError, match="dataset"):
            build_plan(parse_request(
                b'{"op": "solve", "id": "q", "params": {"dataset": "nope"}}'
            ))


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


class TestServiceCache:
    def test_lru_evicts_by_byte_budget(self):
        cache = ServiceCache(max_bytes=100)
        assert cache.put(("a",), "A", 40)
        assert cache.put(("b",), "B", 40)
        assert cache.get(("a",)) == "A"     # refresh a: b is now oldest
        assert cache.put(("c",), "C", 40)   # over budget -> evict b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"
        assert cache.telemetry.snapshot()["evictions"] == 1
        assert cache.total_bytes == 80

    def test_oversize_entry_refused(self):
        cache = ServiceCache(max_bytes=10)
        assert not cache.put(("big",), "X", 11)
        assert len(cache) == 0

    def test_discard_drops_entry_and_counts(self):
        cache = ServiceCache(max_bytes=100)
        key = ("pool", "k")
        assert cache.put(key, "v", 30)
        cache.discard(key)
        assert cache.get(key) is None
        assert cache.total_bytes == 0
        assert cache.telemetry.snapshot()["invalidations"] == 1
        # No quarantine: the key takes a fresh entry straight away.
        assert cache.put(key, "w", 30)
        assert cache.get(key) == "w"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceCache(max_bytes=-1)


# ----------------------------------------------------------------------
# End-to-end sessions
# ----------------------------------------------------------------------


class TestServiceEndToEnd:
    def test_session_replies_are_bit_identical_to_offline(self, offline_estimate):
        config = ServiceConfig(jobs=1, max_in_flight=2, max_queue=4)
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                cold = client.request(estimate_request("e1"))
                assert cold["ok"] and cold["op"] == "estimate"
                assert cold["result"]["estimate"] == offline_estimate
                assert cold["meta"] == {"carry": "none", "degraded": False}
                # Warm repeat: adopted carry, byte-identical result body.
                warm = client.request(estimate_request("e2"))
                assert warm["result"] == cold["result"]
                assert warm["meta"]["carry"] == "adopted"
                health = client.request({"op": "health", "id": "h"})
                counters = health["result"]["counters"]
                assert counters["carry_adopted"] == 1
                assert health["result"]["cache"]["hits"] >= 2

    def test_solve_matches_offline_run(self):
        graph = datasets.load_dataset(DATASET, n=120, seed=0)
        with ExecutionContext(jobs=1) as context:
            reference = ASTI(IndependentCascade(), context=context).run(
                graph, 12, seed=3
            )
        config = ServiceConfig(jobs=1)
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                reply = client.request({
                    "op": "solve", "id": "s1", "seed": 3,
                    "params": {"dataset": DATASET, "n": 120, "eta": 12},
                })
        assert reply["ok"]
        assert reply["result"]["seeds"] == [int(s) for s in reference.seeds]
        assert reply["result"]["spread"] == int(reference.spread)
        assert reply["result"]["total_samples"] == int(reference.total_samples)

    def test_failures_are_typed_replies_on_an_open_connection(self):
        config = ServiceConfig(jobs=1)
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                client.send_raw(b"this is not json\n")
                bad = client.read_reply()
                assert bad == {
                    "id": None, "ok": False,
                    "error": bad["error"],
                }
                assert bad["error"]["code"] == "invalid_request"
                # An unsatisfiable target is rejected by the library's
                # early validation (the 'infeasible' code is reserved for
                # mid-run InfeasibleTargetError, which early validation
                # makes unreachable from well-formed requests).
                infeasible = client.request({
                    "op": "solve", "id": "inf", "seed": 0,
                    "params": {"dataset": DATASET, "n": 60, "eta": 100000},
                })
                assert not infeasible["ok"]
                assert infeasible["error"]["code"] == "invalid_request"
                assert "eta" in infeasible["error"]["message"]
                # The connection survived both failures.
                health = client.request({"op": "health", "id": "h"})
                assert health["ok"]

    def test_zero_deadline_expires_in_queue(self):
        config = ServiceConfig(jobs=1)
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                reply = client.request(estimate_request("d1", deadline_ms=0))
                assert not reply["ok"]
                assert reply["error"]["code"] == "deadline_exceeded"
                assert reply["error"]["stage"] == "queued"
                health = client.request({"op": "health", "id": "h"})
                assert health["result"]["counters"]["deadline_queued"] == 1

    def test_running_deadline_returns_structured_timeout(self):
        config = ServiceConfig(
            jobs=1,
            service_injections=(
                ServiceFaultInjection(kind="slow_handler", nth=0,
                                      delay_seconds=1.0),
            ),
        )
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                reply = client.request(estimate_request("d2", deadline_ms=100))
                assert reply["error"]["code"] == "deadline_exceeded"
                assert reply["error"]["stage"] == "running"

    def test_overload_sheds_with_typed_reply_not_a_dropped_connection(self):
        # One compute slot, zero queue: while request A stalls in its
        # slot, request B on a second connection must be shed.
        config = ServiceConfig(
            jobs=1, max_in_flight=1, max_queue=0,
            service_injections=(
                ServiceFaultInjection(kind="slow_handler", nth=0,
                                      delay_seconds=1.0),
            ),
        )
        with ServiceThread(config) as harness:
            slow = harness.connect()
            fast = harness.connect()
            try:
                slow.send(estimate_request("slow"))
                deadline = time.monotonic() + 5.0
                shed = None
                while time.monotonic() < deadline:
                    shed = fast.request(estimate_request("fast"))
                    if not shed["ok"]:
                        break
                assert shed is not None and not shed["ok"]
                assert shed["error"]["code"] == "overloaded"
                assert "retry_after_ms" in shed["error"]
                # Both connections still deliver: the stalled request
                # completes, and the shed connection takes new work.
                slow_reply = slow.read_reply()
                assert slow_reply["ok"]
                health = fast.request({"op": "health", "id": "h"})
                assert health["result"]["counters"]["shed_overloaded"] >= 1
            finally:
                slow.close()
                fast.close()

    def test_corrupted_cache_entry_is_invalidated_not_served(
        self, offline_estimate
    ):
        config = ServiceConfig(
            jobs=1,
            service_injections=(
                ServiceFaultInjection(kind="cache_corrupt", nth=1),
            ),
        )
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                cold = client.request(estimate_request("c1"))
                poisoned = client.request(estimate_request("c2"))
                assert poisoned["ok"]
                # The tampered carry was rejected and rebuilt from
                # scratch: same bytes as the cold run and the offline
                # reference, with the discard recorded.
                assert poisoned["result"] == cold["result"]
                assert poisoned["result"]["estimate"] == offline_estimate
                assert poisoned["meta"]["carry"] == "discarded"
                health = client.request({"op": "health", "id": "h"})
                assert health["result"]["cache"]["invalidations"] == 1
                assert health["result"]["counters"]["carry_discarded"] == 1

    def test_discarded_key_is_adopted_again(self, offline_estimate):
        # Three corrupt hits in a row on one key, then a clean one: each
        # rejected entry is replaced by the rebuilt pool in the same
        # settle step, so nothing quarantines the key and it adopts again.
        config = ServiceConfig(
            jobs=1,
            service_injections=tuple(
                ServiceFaultInjection(kind="cache_corrupt", nth=nth)
                for nth in (1, 2, 3)
            ),
        )
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                replies = [
                    client.request(estimate_request(f"r{i}")) for i in range(5)
                ]
                health = client.request({"op": "health", "id": "h"})
        assert [reply["meta"]["carry"] for reply in replies] == [
            "none", "discarded", "discarded", "discarded", "adopted",
        ]
        assert all(
            reply["result"]["estimate"] == offline_estimate for reply in replies
        )
        assert health["result"]["cache"]["invalidations"] == 3

    def test_unexpected_exception_is_an_internal_reply(
        self, monkeypatch, offline_estimate
    ):
        from repro.service import handlers

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        with ServiceThread(ServiceConfig(jobs=1)) as harness:
            with harness.connect() as client:
                monkeypatch.setattr(handlers, "run_estimate", broken)
                reply = client.request(estimate_request("x1"))
                assert not reply["ok"]
                assert reply["error"]["code"] == "internal"
                assert reply["error"]["message"] == "RuntimeError: boom"
                monkeypatch.undo()
                # The connection survived: the next request is served.
                again = client.request(estimate_request("x2"))
                assert again["result"]["estimate"] == offline_estimate
                health = client.request({"op": "health", "id": "h"})
                assert health["result"]["counters"]["internal_errors"] == 1

    def test_pool_exhaustion_degrades_to_in_process(self, offline_estimate):
        # Every attempt of chunk 0 crashes and the default policy gets no
        # rebuilds: the shared runtime runs the surviving chunks
        # in-process — same bytes — and the reply, the counters and the
        # health status all say the request degraded.
        config = ServiceConfig(
            jobs=2,
            fault_policy=FaultPolicy(max_rebuilds=0),
            worker_injection=FaultInjection(
                kind="crash", nth=0, attempts=(0, 1, 2, 3),
            ),
        )
        with ServiceThread(config) as harness:
            with harness.connect() as client:
                reply = client.request(estimate_request("g1"))
                assert reply["ok"]
                assert reply["result"]["estimate"] == offline_estimate
                assert reply["meta"]["degraded"] is True
                health = client.request({"op": "health", "id": "h"})
                assert health["result"]["counters"]["degraded_requests"] == 1
                assert health["result"]["status"] == "degraded"

    def test_drain_delivers_in_flight_reply(self):
        config = ServiceConfig(
            jobs=1,
            service_injections=(
                ServiceFaultInjection(kind="slow_handler", nth=0,
                                      delay_seconds=0.4),
            ),
        )
        harness = ServiceThread(config).start()
        client = harness.connect()
        try:
            client.send(estimate_request("inflight"))
            time.sleep(0.1)  # let the request reach its compute slot
            drainer = threading.Thread(target=harness.drain)
            drainer.start()
            reply = client.read_reply()
            drainer.join(timeout=30.0)
            assert not drainer.is_alive()
            assert reply["ok"]
            assert reply["id"] == "inflight"
        finally:
            client.close()

    def test_draining_server_rejects_new_work_typed(self):
        config = ServiceConfig(jobs=1)
        harness = ServiceThread(config).start()
        client = harness.connect()
        try:
            # Establish the session first: a connection still sitting in
            # the kernel's accept backlog when the listener closes is
            # dropped by TCP itself, which is outside the drain contract.
            assert client.request({"op": "health", "id": "h0"})["ok"]
            loop = harness._loop
            assert loop is not None
            loop.call_soon_threadsafe(harness.service.begin_drain)
            time.sleep(0.05)
            try:
                reply = client.request(estimate_request("late"))
            except ServiceError:
                # The drain may close the idle connection before the
                # request lands — a clean EOF, not a dropped reply.
                return
            # If it landed first, the refusal is typed.
            assert not reply["ok"]
            assert reply["error"]["code"] == "shutting_down"
        finally:
            client.close()
            harness.drain()


class TestServiceConfigValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(jobs=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_in_flight=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_queue=-1)

    def test_service_thread_rejects_stdio(self):
        with pytest.raises(ServiceError):
            ServiceThread(ServiceConfig(stdio=True))


_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
_FIELD_VALUE = st.one_of(
    _JSON,
    st.sampled_from(OPERATIONS),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(min_value=0.0),
    st.sampled_from([math.nan, math.inf, -0.0, 10**400]),
)
#: Valid requests with arbitrary optional fields (so the later checks are
#: reached), objects keyed mostly by request fields, and any JSON at all.
_DOCUMENT = st.one_of(
    st.fixed_dictionaries(
        {"op": st.sampled_from(OPERATIONS), "id": st.text(min_size=1, max_size=6)},
        optional={"seed": _FIELD_VALUE, "deadline_ms": _FIELD_VALUE, "params": _FIELD_VALUE},
    ),
    st.dictionaries(
        st.one_of(
            st.sampled_from(["op", "id", "seed", "deadline_ms", "params"]),
            st.text(max_size=6),
        ),
        _FIELD_VALUE,
        max_size=6,
    ),
    _JSON,
)


def _parses_or_raises_protocol_error(line: bytes) -> None:
    try:
        request = parse_request(line)
    except ProtocolError:
        return
    assert isinstance(request, Request)
    assert request.op in OPERATIONS
    assert isinstance(request.seed, int) and request.seed >= 0
    assert request.deadline_ms is None or 0.0 <= request.deadline_ms < math.inf


class TestHostileInput:
    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_raw_bytes_parse_or_raise_protocol_error(self, data):
        _parses_or_raises_protocol_error(data)

    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(document=_DOCUMENT, cut=st.floats(0.0, 1.0))
    def test_json_documents_parse_or_raise_protocol_error(self, document, cut):
        line = json.dumps(document).encode()
        _parses_or_raises_protocol_error(line)
        _parses_or_raises_protocol_error(line[: int(len(line) * cut)])

    def test_stdio_session_answers_every_hostile_line(self):
        lines = [HOSTILE_LINES[name] for name in sorted(HOSTILE_LINES)]
        health = b'{"op": "health", "id": "h"}'
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio"],
            input=b"\n".join(lines + [health]) + b"\n",
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        replies = [json.loads(row) for row in done.stdout.splitlines()]
        assert len(replies) == len(lines) + 1
        for reply in replies[:-1]:
            assert reply["ok"] is False
            assert reply["error"]["code"] == "invalid_request"
        assert replies[-1]["id"] == "h" and replies[-1]["ok"] is True
