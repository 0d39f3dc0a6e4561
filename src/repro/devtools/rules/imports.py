"""REP009 — the reference implementations stay off production paths.

:mod:`repro.testing.reference` keeps the one-at-a-time loops the engines
replaced, as test oracles and benchmark baselines.  A production module
importing it is a second implementation growing back, so only the tests,
the benchmarks and the ``repro/testing`` package may.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.rules.base import Finding, Module, Rule


REFERENCE_MODULE = "repro.testing.reference"


def _imports_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        dotted = [alias.name + "." for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        dotted = [f"{node.module}.{alias.name}." for alias in node.names]
        if node.level:  # relative (``from ..testing import reference``)
            return any("testing.reference." in name for name in dotted)
    else:
        return False
    return any(name.startswith(REFERENCE_MODULE + ".") for name in dotted)


class ReferenceImportRule(Rule):
    """REP009 — no import of ``repro.testing.reference`` in production code."""

    code = "REP009"
    name = "reference-off-production"
    hint = (
        "production code keeps one implementation per engine operation; "
        "import the reference loops from tests/ and benchmarks/ only"
    )

    def applies_to(self, path: str) -> bool:
        parts = path.split("/")
        return "repro/testing/" not in path and not {"tests", "benchmarks"} & set(parts)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if _imports_reference(node):
                yield self.finding(
                    module, node, f"imports {REFERENCE_MODULE} outside tests/"
                )
