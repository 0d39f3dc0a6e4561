"""REP008 — 1-D dedups in the BFS engines go through ``sorted_unique``.

On NumPy 2.x ``np.unique`` hashes its input before sorting it, which costs
several times a plain sort on the level-sized key arrays the diffusion
and sampling engines dedup in their hot loops.
:func:`repro.utils.arrays.sorted_unique` returns the same sorted distinct
values through one sort and an adjacent-difference mask.  A bare
``np.unique(x)`` call there is the 1-D dedup this rule points at; calls
with keyword arguments (``axis=``, ``return_counts=`` …) ask for more
than a dedup and are left alone.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.rules.base import Finding, Module, Rule, iter_calls

#: Package directories whose hot loops this rule covers.
ENGINE_PACKAGES = ("repro/diffusion/", "repro/sampling/")


class SortedUniqueRule(Rule):
    """REP008 — no bare ``np.unique(x)`` in the diffusion/sampling engines."""

    code = "REP008"
    name = "sort-based-dedup"
    hint = (
        "dedup 1-D arrays with repro.utils.arrays.sorted_unique (sort plus "
        "an adjacent-difference mask, same output as np.unique)"
    )

    def applies_to(self, path: str) -> bool:
        return any(package in path for package in ENGINE_PACKAGES)

    def check(self, module: Module) -> Iterator[Finding]:
        for call in iter_calls(module.tree):
            if (
                module.numpy_callee(call.func) == "unique"
                and len(call.args) == 1
                and not call.keywords
            ):
                yield self.finding(
                    module,
                    call,
                    "np.unique() as a 1-D dedup — it hashes before it "
                    "sorts, several times the cost of a plain sort",
                )
