"""``repro serve`` with the layer tracer installed in the server process.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_server.py --port 0

Takes the ``repro serve`` arguments unchanged.  After the server drains
(SIGTERM), prints one ``perfbench-trace {json}`` line on stdout with the
span table and counters, which the ``serve`` workload parses.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install()
    try:
        code = repro_main(["serve", *argv])
    finally:
        tracer.uninstall()
    trace = {"spans": tracer.summary(), "counts": dict(tracer.counts)}
    print("perfbench-trace " + json.dumps(trace), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
