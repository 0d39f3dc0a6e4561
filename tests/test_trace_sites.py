"""The benchmark tracer wraps each selector round exactly once.

``perfbench/tracer.py`` wraps ``TrimSelector.select_with_pool`` and then
``TrimBSelector.select_with_pool``.  ``TrimSelector`` inherits the method,
so a missing site shows in the benchmark's own self-test, but a site that
is wrapped twice (an alias, or the inheritance turned around) would only
double ``core.rounds`` and ``sampling.sets_fresh``.  This guard installs
the tracer as the benchmark does and counts spans per round.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.asti import ASTI
from repro.diffusion.ic import IndependentCascade
from repro.experiments import datasets

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_one_select_span_per_round(tracer_module, batch_size):
    graph = datasets.load_dataset("nethept-sim", n=300, seed=0)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = ASTI(IndependentCascade(), batch_size=batch_size).run(
            graph, 30, seed=3
        )
    finally:
        tracer.uninstall()
    assert len(result.rounds) > 1
    assert tracer.summary()["core.select"]["calls"] == len(result.rounds)
    assert tracer.counts["sampling.sets_fresh"] == result.total_samples
