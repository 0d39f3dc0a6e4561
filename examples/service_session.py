"""One complete session against the always-on seed-selection service.

Starts ``python -m repro serve`` as a subprocess, walks through the
wire protocol — health, a cold and a warm estimate (the warm one adopts
the cached mRR pool), an over-deadline request answered with a typed
``deadline_exceeded`` — and finishes with the robustness finale: SIGTERM
while a request is in flight, which must still deliver that reply
before the server drains and exits 0.  The server runs with a
``--pool-store`` directory, so a second server booted on it answers the
same estimate from the stored pool: the same bytes, without resampling.

Run::

    python examples/service_session.py
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

ESTIMATE = {
    "op": "estimate", "id": "cold", "seed": 7,
    "params": {
        "dataset": "nethept-sim", "n": 300, "eta": 30,
        "seeds": [0, 3, 7], "theta": 1000,
    },
}


def start_server(pool_store: str) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(repo, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--pool-store", pool_store],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    # The first stdout line announces the bound port.
    banner = process.stdout.readline()
    match = re.search(r"listening on [\d.]+:(\d+)", banner)
    if not match:
        process.kill()
        raise RuntimeError(f"unexpected banner: {banner!r}")
    return process, int(match.group(1))


def connect(port: int):
    conn = socket.create_connection(("127.0.0.1", port), timeout=120)
    wire = conn.makefile("rwb")

    def request(payload):
        wire.write(json.dumps(payload).encode() + b"\n")
        wire.flush()
        return json.loads(wire.readline())

    return conn, wire, request


def main() -> None:
    with tempfile.TemporaryDirectory() as pool_store:
        cold = first_session(pool_store)
        restarted_session(pool_store, cold)


def first_session(pool_store: str) -> dict:
    process, port = start_server(pool_store)
    print(f"server up on port {port}")
    conn, wire, request = connect(port)
    try:
        health = request({"op": "health", "id": "h1"})
        print(f"health: {health['result']['status']}")

        cold = request(ESTIMATE)
        print(f"cold estimate: {cold['result']['estimate']} "
              f"({cold['ms']:.0f}ms, carry={cold['meta']['carry']})")

        warm = request(dict(ESTIMATE, id="warm"))
        assert warm["result"] == cold["result"], "warm run must be bit-identical"
        print(f"warm estimate: {warm['result']['estimate']} "
              f"({warm['ms']:.0f}ms, carry={warm['meta']['carry']})")

        late = request(dict(ESTIMATE, id="late", deadline_ms=0))
        print(f"deadline_ms=0 -> {late['error']['code']} "
              f"(stage={late['error']['stage']})")

        # The finale: fire a request, SIGTERM the server while it runs,
        # and still collect the reply before the socket closes.
        wire.write(json.dumps(dict(ESTIMATE, id="inflight")).encode() + b"\n")
        wire.flush()
        time.sleep(0.05)  # repro-lint: disable=REP007 -- let the line reach admission
        process.send_signal(signal.SIGTERM)
        inflight = json.loads(wire.readline())
        assert inflight["ok"], f"in-flight request lost in drain: {inflight}"
        print(f"SIGTERM mid-request: reply '{inflight['id']}' still delivered")

        code = process.wait(timeout=60)
        assert code == 0, f"server exited {code}"
        print("server drained and exited 0")
        return cold
    finally:
        conn.close()
        if process.poll() is None:
            process.kill()


def restarted_session(pool_store: str, cold: dict) -> None:
    """Boot a second server on the same store and replay the estimate."""
    process, port = start_server(pool_store)
    print(f"second server up on port {port}")
    conn, _, request = connect(port)
    try:
        again = request(dict(ESTIMATE, id="restart"))
        assert again["result"] == cold["result"], "restart must be bit-identical"
        store = request({"op": "health", "id": "h2"})["result"]["store"]
        assert store["hits"] >= 1, f"restart resampled the pool: {store}"
        print(f"after restart: {again['result']['estimate']} "
              f"({again['ms']:.0f}ms, {store['hits']} pool-store hit(s))")
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=60)
        assert code == 0, f"second server exited {code}"
    finally:
        conn.close()
        if process.poll() is None:
            process.kill()


if __name__ == "__main__":
    main()
