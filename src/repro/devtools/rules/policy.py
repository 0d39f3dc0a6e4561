"""Policy rule: REP006 — engine policy routes through ``ExecutionContext``.

Every engine-layer function takes its engine policy from one
:class:`~repro.runtime.context.ExecutionContext`, passed as the single
``context=`` argument.  This rule stops per-call knob chains from growing
back: an engine-layer function that takes a parameter named after a
context knob is a finding — with or without a ``context`` parameter next
to it, since a knob beside the context is a second way to set the same
policy.  Only the modules that *define* the policy layer are exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.rules.base import Finding, Module, Rule, parameters_of

#: The engine-policy knob fields ExecutionContext keeps.  A parameter with
#: one of these names on an engine-layer function is a policy chain
#: regrowing.
POLICY_KWARGS = frozenset(
    {
        "sample_batch_size",
        "mc_batch_size",
        "mc_tolerance",
        "reuse_pool",
        "jobs",
        "graph_storage",
        "kernel_backend",
    }
)


class ContextPolicyRule(Rule):
    """REP006 — no policy knob parameters beside (or instead of) ``context``."""

    code = "REP006"
    name = "policy-via-context"
    hint = (
        "take context: ExecutionContext and read the knob from it; callers "
        "set engine policy on the context they build"
    )
    #: Engine-layer scope: the installed package only.  Benchmark drivers
    #: and examples legitimately sweep raw knob values from argv/grids.
    _ENGINE_MARKER = "repro/"
    #: Modules that define the policy layer itself: the context (owner of
    #: every knob), the shared validators, the experiment config (the
    #: sweep's declarative source of a context), the CLI (argv boundary),
    #: and the parallel runtime (``jobs`` is its constructor's domain —
    #: the context passes it down, it does not read it back).
    exempt_paths = (
        "repro/runtime/context.py",
        "repro/utils/validation.py",
        "repro/experiments/config.py",
        "repro/cli.py",
        "repro/parallel/runtime.py",
    )

    def applies_to(self, path: str) -> bool:
        if self._ENGINE_MARKER not in path:
            return False
        return super().applies_to(path)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            knobs = sorted(
                param.arg
                for param in parameters_of(node)
                if param.arg in POLICY_KWARGS
            )
            if not knobs:
                continue
            yield self.finding(
                module,
                node,
                f"{node.name}() takes policy "
                f"{'kwarg' if len(knobs) == 1 else 'kwargs'} "
                f"{', '.join(knobs)} — engine policy routes through "
                "ExecutionContext",
            )
