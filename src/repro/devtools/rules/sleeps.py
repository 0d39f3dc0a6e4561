"""REP007 — no bare blocking sleeps.

Every deliberate delay in the library routes through
:func:`repro.utils.timing.backoff_sleep` (exponential retry backoff)
so blocking waits are greppable and tested in one place; a bare
``time.sleep`` is either an unsanctioned delay or a latency bug waiting
for a profiler.  Async code — the service layer — must never block its
event loop at all: there the fix is ``await asyncio.sleep``, and even
``backoff_sleep`` is flagged because a sanctioned *blocking* sleep is
still a blocked event loop.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.rules.base import Finding, Module, Rule

_ScopeKind = tuple[bool, ...]  # innermost-last: is each function scope async?


class BlockingSleepRule(Rule):
    """REP007 — ``time.sleep`` only via the sanctioned backoff helper.

    Flags every call that resolves to ``time.sleep`` (through ``import
    time``, an alias, or ``from time import sleep [as ...]``); inside an
    ``async def`` it additionally flags :func:`backoff_sleep`, since any
    blocking sleep on the event loop stalls every in-flight request.
    The helper's home module is exempt — it hosts the one sanctioned
    call.
    """

    code = "REP007"
    name = "no-bare-sleep"
    hint = (
        "route deliberate delays through repro.utils.timing.backoff_sleep; "
        "in async code use 'await asyncio.sleep(...)' instead"
    )
    exempt_paths = ("repro/utils/timing.py",)

    def check(self, module: Module) -> Iterator[Finding]:
        sleep_names, time_aliases = _time_sleep_bindings(module)
        yield from self._walk(
            module, module.tree, in_async=False,
            sleep_names=sleep_names, time_aliases=time_aliases,
        )

    def _walk(
        self,
        module: Module,
        node: ast.AST,
        in_async: bool,
        sleep_names: set[str],
        time_aliases: set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_call(
                module, node, in_async, sleep_names, time_aliases
            )
        child_async = in_async
        if isinstance(node, ast.AsyncFunctionDef):
            child_async = True
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # A sync def nested inside an async def runs off the loop
            # (executors) — judge it as sync code.
            child_async = False
        for child in ast.iter_child_nodes(node):
            yield from self._walk(
                module, child, child_async, sleep_names, time_aliases
            )

    def _check_call(
        self,
        module: Module,
        call: ast.Call,
        in_async: bool,
        sleep_names: set[str],
        time_aliases: set[str],
    ) -> Iterator[Finding]:
        func = call.func
        is_time_sleep = (
            isinstance(func, ast.Name) and func.id in sleep_names
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id in time_aliases
        )
        if is_time_sleep:
            where = "async code (this blocks the event loop)" if in_async \
                else "library code"
            yield self.finding(
                module,
                call,
                f"bare time.sleep() in {where} — deliberate delays route "
                "through the sanctioned backoff helper",
            )
            return
        if in_async and (
            (isinstance(func, ast.Name) and func.id == "backoff_sleep")
            or (isinstance(func, ast.Attribute) and func.attr == "backoff_sleep")
        ):
            yield self.finding(
                module,
                call,
                "backoff_sleep() inside an async function blocks the event "
                "loop — await asyncio.sleep(...) instead",
            )


def _time_sleep_bindings(module: Module) -> tuple[set[str], set[str]]:
    """Local names for ``time.sleep`` itself and for the ``time`` module."""
    sleep_names: set[str] = set()
    time_aliases: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    sleep_names.add(alias.asname or "sleep")
    return sleep_names, time_aliases
