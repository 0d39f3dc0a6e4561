"""Tests for the project linter (``repro.devtools.lint``).

Each rule gets positive fixtures (the construct it exists to catch) and
negative fixtures (the sanctioned alternative), all as in-memory sources
linted under engine-layer-looking paths.  The scratch-copy tests mirror
real source files into a ``repro/...`` tree under ``tmp_path`` and verify
that (a) the real tree is clean as shipped and (b) seeded mutations —
``np.random.seed`` and a lambda into ``map_ordered`` — surface the
expected codes, which is the end-to-end property the linter is for.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.lint import (
    JSON_SCHEMA_VERSION,
    PARSE_ERROR_CODE,
    LintRunner,
    collect_files,
    main,
    render_json,
    suppressed_lines,
)
from repro.devtools.rules import ALL_RULES

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: A path the engine-layer rules (REP006's ``repro/`` marker) apply to.
ENGINE_PATH = "src/repro/sampling/example.py"


def lint(source: str, path: str = ENGINE_PATH):
    return LintRunner().lint_source(source, path)


def codes(source: str, path: str = ENGINE_PATH):
    return [finding.code for finding in lint(source, path)]


# ----------------------------------------------------------------------
# Rule catalog sanity
# ----------------------------------------------------------------------


def test_rule_catalog_codes_are_unique_and_documented():
    seen = [rule.code for rule in ALL_RULES]
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)
    for rule in ALL_RULES:
        assert rule.code.startswith("REP") and len(rule.code) == 6
        assert rule.hint, f"{rule.code} has no fix hint"
        assert rule.name, f"{rule.code} has no name"


# ----------------------------------------------------------------------
# REP001 — global-state numpy RNG
# ----------------------------------------------------------------------


def test_rep001_flags_global_seed():
    src = "import numpy as np\nnp.random.seed(0)\n"
    assert codes(src) == ["REP001"]


def test_rep001_flags_aliased_and_from_imports():
    src = (
        "import numpy.random as npr\n"
        "from numpy.random import shuffle\n"
        "npr.randint(10)\n"
        "shuffle([1, 2])\n"
    )
    assert codes(src) == ["REP001", "REP001"]


def test_rep001_ignores_generator_methods():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng(7)\n"
        "rng.random()\n"
        "rng.shuffle([1, 2])\n"
    )
    assert codes(src) == []


def test_rep001_ignores_unrelated_modules():
    src = "import random\nrandom.seed(0)\n"
    assert codes(src) == []


# ----------------------------------------------------------------------
# REP002 — unseeded RNG construction
# ----------------------------------------------------------------------


def test_rep002_flags_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert codes(src) == ["REP002"]


def test_rep002_flags_explicit_none_seed():
    src = "from numpy.random import default_rng\nrng = default_rng(None)\n"
    assert codes(src) == ["REP002"]


def test_rep002_flags_generator_over_unseeded_bit_generator():
    src = "import numpy as np\nrng = np.random.Generator(np.random.PCG64())\n"
    assert codes(src) == ["REP002"]


def test_rep002_accepts_seeded_construction():
    src = (
        "import numpy as np\n"
        "def fresh(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "rng = np.random.Generator(np.random.PCG64(42))\n"
    )
    assert codes(src) == []


def test_rep002_exempts_the_rng_factory_modules():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert codes(src, "src/repro/utils/rng.py") == []
    # The execution context builds no generators, so it is not exempt.
    assert codes(src, "src/repro/runtime/context.py") == ["REP002"]


# ----------------------------------------------------------------------
# REP003 — picklable dispatch
# ----------------------------------------------------------------------


def test_rep003_flags_lambda_into_map_ordered():
    src = (
        "def run(runtime, payloads):\n"
        "    return runtime.map_ordered(lambda item: item, payloads)\n"
    )
    assert codes(src) == ["REP003"]


def test_rep003_flags_nested_function():
    src = (
        "def run(runtime, payloads):\n"
        "    def job(item):\n"
        "        return item\n"
        "    return runtime.map_ordered(job, payloads)\n"
    )
    assert codes(src) == ["REP003"]


def test_rep003_flags_bound_method_into_submit():
    src = (
        "class Driver:\n"
        "    def go(self, pool, payload):\n"
        "        return pool.submit(self.job, payload)\n"
    )
    assert codes(src) == ["REP003"]


def test_rep003_accepts_module_level_function():
    src = (
        "def job(item):\n"
        "    return item\n"
        "def run(runtime, payloads):\n"
        "    return runtime.map_ordered(job, payloads)\n"
    )
    assert codes(src) == []


# ----------------------------------------------------------------------
# REP004 — njit-safe kernels (path-scoped to kernels/reference.py)
# ----------------------------------------------------------------------

KERNEL_PATH = "scratch/repro/kernels/reference.py"


def test_rep004_flags_unsafe_kernel_constructs():
    src = (
        "import numpy as np\n"
        "def kernel(frontier, **options):\n"
        "    table = {}\n"
        "    rng = np.random.default_rng(0)\n"
        "    return np.concatenate([frontier])\n"
    )
    found = codes(src, KERNEL_PATH)
    assert found == ["REP004"] * 4  # kwargs, dict, rng call, np.concatenate


def test_rep004_accepts_the_allowlisted_subset():
    src = (
        "import numpy as np\n"
        "def kernel(indptr, indices, draws):\n"
        "    out = np.empty(len(indices), dtype=np.int64)\n"
        "    count = 0\n"
        "    for i in range(len(indices)):\n"
        "        if draws[i] < 0.5:\n"
        "            out[count] = indices[i]\n"
        "            count += 1\n"
        "    return out[:count]\n"
    )
    assert codes(src, KERNEL_PATH) == []


def test_rep004_is_scoped_to_the_reference_module():
    src = "def helper(**kwargs):\n    return dict(kwargs)\n"
    assert codes(src, ENGINE_PATH) == []
    assert codes(src, KERNEL_PATH) != []


# ----------------------------------------------------------------------
# REP005 — paired shared-memory release
# ----------------------------------------------------------------------


def test_rep005_flags_unpaired_publish():
    src = (
        "def run(runtime, arrays):\n"
        "    handle, release = runtime.publish_arrays(arrays)\n"
        "    return handle\n"
    )
    assert codes(src) == ["REP005"]


def test_rep005_accepts_finally_release():
    src = (
        "def run(runtime, arrays):\n"
        "    handle, release = runtime.publish_arrays(arrays)\n"
        "    try:\n"
        "        return work(handle)\n"
        "    finally:\n"
        "        release()\n"
    )
    assert codes(src) == []


def test_rep005_accepts_exitstack_registration():
    src = (
        "def run(runtime, arrays, stack):\n"
        "    handle, release = runtime.publish_arrays(arrays)\n"
        "    stack.callback(release)\n"
        "    return handle\n"
    )
    assert codes(src) == []


def test_rep005_suggests_published_context_manager():
    finding = lint(
        "def run(runtime, arrays):\n"
        "    handle, release = runtime.publish_arrays(arrays)\n"
        "    return handle\n"
    )[0]
    assert "published(" in finding.hint


# ----------------------------------------------------------------------
# REP006 — policy routes through ExecutionContext
# ----------------------------------------------------------------------


def test_rep006_flags_bare_policy_kwarg():
    src = "def estimate(graph, seeds, mc_batch_size=64):\n    return 0\n"
    found = lint(src)
    assert [f.code for f in found] == ["REP006"]
    assert "mc_batch_size" in found[0].message


def test_rep006_flags_knob_beside_context():
    # A knob next to context= is a second way to set the same policy.
    src = (
        "def estimate(graph, seeds, mc_batch_size=None, context=None):\n"
        "    return 0\n"
    )
    found = lint(src)
    assert [f.code for f in found] == ["REP006"]
    assert "mc_batch_size" in found[0].message


def test_rep006_flags_knob_forwarded_to_a_resolver():
    # Routing the knob through a helper that builds a context is no
    # escape hatch either: the parameter itself is the finding.
    src = (
        "def estimate(graph, seeds, jobs=None):\n"
        "    ctx = resolve_context(None, 'estimate', jobs=jobs)\n"
        "    return ctx\n"
    )
    assert codes(src) == ["REP006"]


def test_rep006_only_applies_inside_the_package():
    src = "def sweep(graph, jobs=4):\n    return jobs\n"
    assert codes(src, "benchmarks/bench_example.py") == []
    assert codes(src, "src/repro/core/example.py") == ["REP006"]


def test_rep006_exempts_the_policy_layer_modules():
    src = "def parse(jobs=1, kernel_backend='auto'):\n    return jobs\n"
    for exempt in ("src/repro/cli.py", "src/repro/experiments/config.py"):
        assert codes(src, exempt) == []


# ----------------------------------------------------------------------
# REP007 — no bare blocking sleeps
# ----------------------------------------------------------------------


def test_rep007_flags_bare_time_sleep():
    src = "import time\n\ndef wait():\n    time.sleep(1.0)\n"
    assert codes(src) == ["REP007"]


def test_rep007_flags_aliased_and_from_imports():
    aliased = "import time as t\n\ndef wait():\n    t.sleep(0.5)\n"
    assert codes(aliased) == ["REP007"]
    from_import = "from time import sleep as snooze\n\ndef wait():\n    snooze(2)\n"
    assert codes(from_import) == ["REP007"]


def test_rep007_flags_blocking_sleeps_in_async_code():
    # Both a bare time.sleep and the otherwise-sanctioned backoff helper
    # block the event loop inside an async def; the hint says to await
    # asyncio.sleep instead.
    blocking = (
        "import time\n"
        "from repro.utils.timing import backoff_sleep\n\n"
        "async def handler():\n"
        "    time.sleep(0.1)\n"
        "    backoff_sleep(0.1, 1)\n"
    )
    findings = lint(blocking, "src/repro/service/example.py")
    assert [f.code for f in findings] == ["REP007", "REP007"]
    assert "event loop" in findings[1].message


def test_rep007_accepts_async_sleep_and_backoff_helper():
    src = (
        "import asyncio\n"
        "from repro.utils.timing import backoff_sleep\n\n"
        "async def handler():\n"
        "    await asyncio.sleep(0.1)\n\n"
        "def retry():\n"
        "    backoff_sleep(0.1, 1)\n"
    )
    assert codes(src, "src/repro/service/example.py") == []


def test_rep007_sync_def_inside_async_def_is_sync():
    # A nested sync def is executor-bound work, not loop code.
    src = (
        "import time\n\n"
        "async def handler():\n"
        "    def compute():\n"
        "        time.sleep(0.01)\n"
        "    return compute\n"
    )
    findings = lint(src)
    assert [f.code for f in findings] == ["REP007"]
    assert "library code" in findings[0].message


def test_rep007_exempts_the_timing_module():
    src = "import time\n\ndef backoff_sleep(base, attempt):\n    time.sleep(base)\n"
    assert codes(src, "src/repro/utils/timing.py") == []


# ----------------------------------------------------------------------
# REP008 — sort-based dedup in the engines
# ----------------------------------------------------------------------


def test_rep008_flags_bare_unique_in_engine_packages():
    src = "import numpy as np\n\ndef level(keys):\n    return np.unique(keys)\n"
    assert codes(src, "src/repro/diffusion/example.py") == ["REP008"]
    findings = lint(src, "src/repro/sampling/example.py")
    assert [f.code for f in findings] == ["REP008"]
    assert "sorted_unique" in findings[0].hint


def test_rep008_flags_aliased_numpy():
    src = "import numpy\n\ndef level(keys):\n    return numpy.unique(keys[keys > 0])\n"
    assert codes(src, "src/repro/diffusion/example.py") == ["REP008"]


def test_rep008_accepts_keyword_forms_and_the_helper():
    src = (
        "import numpy as np\n"
        "from repro.utils.arrays import sorted_unique\n\n"
        "def level(keys, pairs):\n"
        "    values, counts = np.unique(keys, return_counts=True)\n"
        "    rows = np.unique(pairs, axis=0)\n"
        "    return sorted_unique(keys)\n"
    )
    assert codes(src, "src/repro/diffusion/example.py") == []


def test_rep008_is_scoped_to_diffusion_and_sampling():
    src = "import numpy as np\n\ndef degrees(d):\n    return np.unique(d)\n"
    assert codes(src, "src/repro/graph/example.py") == []
    assert codes(src, "benchmarks/example.py") == []


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------


def test_suppression_on_the_flagged_line():
    src = (
        "import numpy as np\n"
        "np.random.seed(0)  # repro-lint: disable=REP001 -- fixture\n"
    )
    assert codes(src) == []


def test_suppression_from_the_line_above():
    src = (
        "import numpy as np\n"
        "# repro-lint: disable=REP001 -- deliberate fixture\n"
        "np.random.seed(0)\n"
    )
    assert codes(src) == []


def test_bare_disable_suppresses_every_code():
    src = (
        "import numpy as np\n"
        "np.random.seed(0)  # repro-lint: disable\n"
    )
    assert codes(src) == []


def test_suppression_is_code_specific():
    src = (
        "import numpy as np\n"
        "np.random.seed(0)  # repro-lint: disable=REP003\n"
    )
    assert codes(src) == ["REP001"]


def test_suppressed_lines_parses_multiple_codes():
    mapping = suppressed_lines("x = 1  # repro-lint: disable=REP001, REP006\n")
    assert mapping[1] == frozenset({"REP001", "REP006"})


# ----------------------------------------------------------------------
# Parse errors, rendering, CLI
# ----------------------------------------------------------------------


def test_unparsable_source_reports_rep000():
    found = lint("def broken(:\n")
    assert [f.code for f in found] == [PARSE_ERROR_CODE]


def test_json_payload_shape_is_pinned():
    findings = lint("import numpy as np\nnp.random.seed(0)\n")
    payload = json.loads(render_json(findings, files_checked=1))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert payload["counts_by_code"] == {"REP001": 1}
    (entry,) = payload["findings"]
    assert set(entry) == {"path", "line", "col", "code", "message", "hint"}
    assert entry["code"] == "REP001"
    assert entry["line"] == 2


def test_collect_files_walks_directories_and_skips_caches(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)])
    assert files == [tmp_path / "pkg" / "mod.py"]
    with pytest.raises(FileNotFoundError):
        collect_files([str(tmp_path / "missing")])


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nnp.random.seed(0)\n")

    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    assert "REP001" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["--select", "REP999", str(clean)]) == 2
    assert main(["--list-rules"]) == 0
    assert "REP001" in capsys.readouterr().out


def test_main_select_restricts_rules(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
    assert main(["--select", "REP003", str(dirty)]) == 0
    assert main(["--select", "REP001,REP003", str(dirty)]) == 1


# ----------------------------------------------------------------------
# Scratch-copy mutation checks against real sources
# ----------------------------------------------------------------------


def _mirror(tmp_path: Path, relative: str) -> Path:
    """Copy one real source file into a ``repro/...`` scratch mirror."""
    destination = tmp_path / "repro" / relative
    destination.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(REPO_SRC / "repro" / relative, destination)
    return destination


def test_shipped_tree_is_clean():
    runner = LintRunner()
    findings, files_checked = runner.lint_paths([str(REPO_SRC)])
    assert findings == []
    assert files_checked > 50


def test_mutated_global_seed_is_caught(tmp_path):
    target = _mirror(tmp_path, "diffusion/montecarlo.py")
    assert LintRunner().lint_file(target) == []
    target.write_text(
        target.read_text() + "\n\ndef _mutated() -> None:\n    np.random.seed(0)\n"
    )
    assert [f.code for f in LintRunner().lint_file(target)] == ["REP001"]


def test_mutated_lambda_dispatch_is_caught(tmp_path):
    target = _mirror(tmp_path, "sampling/engine.py")
    assert LintRunner().lint_file(target) == []
    target.write_text(
        target.read_text()
        + "\n\ndef _mutated(runtime, payloads):\n"
        + "    return runtime.map_ordered(lambda item: item, payloads)\n"
    )
    assert [f.code for f in LintRunner().lint_file(target)] == ["REP003"]


def test_mutated_kernel_is_caught(tmp_path):
    target = _mirror(tmp_path, "kernels/reference.py")
    assert LintRunner().lint_file(target) == []
    target.write_text(
        target.read_text()
        + "\n\ndef _mutated_kernel(frontier):\n    lookup = {}\n    return lookup\n"
    )
    assert [f.code for f in LintRunner().lint_file(target)] == ["REP004"]
