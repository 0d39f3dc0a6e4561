"""Determinism rules: REP001 (global-state RNG), REP002 (unseeded RNG).

The library's reproducibility contract is that every random draw comes
from a caller-provided :class:`numpy.random.Generator`, rooted in a
``SeedSequence`` owned at the top of a run (PR 4's chunk-indexed seeding
makes pools bit-identical for any worker count *only* because no code
path ever touches process-global RNG state or mints entropy of its own).
These two rules make that contract a static property.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.rules.base import (
    Finding,
    Module,
    Rule,
    first_positional,
    is_none,
    iter_calls,
)

#: The legacy global-state ``numpy.random`` API: every one of these reads
#: or mutates the hidden module-level ``RandomState``, so a call anywhere
#: silently couples two components' streams (and differs across worker
#: processes, which each inherit their own copy of the global state).
GLOBAL_STATE_FNS = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "geometric",
        "beta",
        "gamma",
        "lognormal",
        "pareto",
        "power",
        "zipf",
        "RandomState",
    }
)

#: numpy bit-generator constructors REP002 looks through: a ``Generator``
#: wrapping one of these built with no seed is still unseeded entropy.
BIT_GENERATORS = frozenset({"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"})


class GlobalStateRandomRule(Rule):
    """REP001 — no global-state ``numpy.random`` calls, anywhere."""

    code = "REP001"
    name = "no-global-numpy-rng"
    hint = (
        "draw from a caller-provided numpy.random.Generator "
        "(repro.utils.rng.as_generator / spawn_seed_sequences) instead "
        "of the process-global numpy.random state"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for call in iter_calls(module.tree):
            callee = module.numpy_random_callee(call.func)
            if callee in GLOBAL_STATE_FNS:
                yield self.finding(
                    module,
                    call,
                    f"call to the global-state numpy.random.{callee}() — "
                    "hidden shared RNG state breaks worker-count and "
                    "rerun reproducibility",
                )


class UnseededGeneratorRule(Rule):
    """REP002 — unseeded RNG construction outside ``repro.utils.rng``.

    ``default_rng()`` (or ``default_rng(None)``, or ``Generator`` over a
    bit generator built without a seed) mints fresh OS entropy, so the
    stream can never be replayed or attributed to a run's root seed.
    Only the RNG helpers in :mod:`repro.utils.rng` — where ``seed=None``
    is the documented opt-in to fresh entropy — may do it.
    """

    code = "REP002"
    name = "no-unseeded-rng"
    hint = (
        "take a seed / Generator argument and normalize it via "
        "repro.utils.rng.as_generator"
    )
    exempt_paths = ("repro/utils/rng.py",)

    def check(self, module: Module) -> Iterator[Finding]:
        for call in iter_calls(module.tree):
            callee = module.numpy_random_callee(call.func)
            if callee == "default_rng" and self._unseeded(module, call):
                yield self.finding(
                    module,
                    call,
                    "unseeded default_rng() construction — fresh OS "
                    "entropy makes the stream unreproducible",
                )
            elif callee == "Generator" and self._unseeded_generator(module, call):
                yield self.finding(
                    module,
                    call,
                    "Generator(...) built over an unseeded bit generator — "
                    "fresh OS entropy makes the stream unreproducible",
                )

    @staticmethod
    def _unseeded(module: Module, call: ast.Call) -> bool:
        if call.keywords:
            return False
        arg = first_positional(call)
        return (not call.args) or is_none(arg)

    def _unseeded_generator(self, module: Module, call: ast.Call) -> bool:
        arg = first_positional(call)
        if arg is None and not call.args:
            return True  # Generator() — invalid anyway, but surely unseeded
        if not isinstance(arg, ast.Call):
            return False
        inner = module.numpy_random_callee(arg.func)
        if inner not in BIT_GENERATORS:
            return False
        return self._unseeded(module, arg)
