"""Shared configuration for the reproduction benchmarks.

Every module under ``benchmarks/`` regenerates one artifact of the paper
(a table or a figure) at a reduced scale, prints it in ASCII, and asserts
its qualitative shape.  Run them with::

    pytest benchmarks/bench_*.py --benchmark-only -s

The ``-s`` flag shows the regenerated tables.  The QUICK profile keeps the
full suite in the minutes range; raise the constants for a closer-to-paper
run (the drivers accept arbitrary sizes).
"""

from __future__ import annotations

import pytest

# The shrunk measurement profile shared by the figure benchmarks.
QUICK = {
    "graph_n": 320,
    "realizations": 3,
    "eta_fractions": (0.02, 0.06, 0.12),
    "max_samples": 12_000,
    "seed": 0,
}

#: Algorithm roster for the sweep figures (full paper roster minus ASTI-2,
#: which adds little signal beyond ASTI-4 at this scale).
SWEEP_ALGORITHMS = ("ASTI", "ASTI-4", "ASTI-8", "AdaptIM", "ATEUC")


@pytest.fixture(scope="session")
def quick_profile():
    return dict(QUICK)


_SWEEP_CACHE = {}


def get_sweep(model_name: str):
    """The shared NetHEPT-sim sweep behind Figures 4/5/9 (IC) and 6/7 (LT).

    Computed once per model per session; the figure benchmarks that merely
    re-slice it (times, spreads) reuse the cached run, exactly as the paper
    derives several figures from one measurement campaign.
    """
    if model_name not in _SWEEP_CACHE:
        from repro.experiments import figures

        _SWEEP_CACHE[model_name] = figures.threshold_sweep(
            dataset="nethept-sim",
            model_name=model_name,
            algorithms=SWEEP_ALGORITHMS,
            **QUICK,
        )
    return _SWEEP_CACHE[model_name]


def print_artifact(text: str) -> None:
    """Banner-print one regenerated artifact."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)
