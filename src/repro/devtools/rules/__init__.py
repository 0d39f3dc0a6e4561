"""The rule catalog for :mod:`repro.devtools.lint`.

Each rule guards one invariant the equivalence/chaos test suites would
otherwise only catch minutes into tier-1:

=======  ====================  ==============================================
code     name                  invariant guarded
=======  ====================  ==============================================
REP001   no-global-numpy-rng   all randomness flows from caller-owned
                               Generators (worker-count bit-identity)
REP002   no-unseeded-rng       every stream is attributable to a run's
                               root seed (replayability)
REP003   picklable-dispatch    worker payloads survive spawn-context
                               pickling and fault-tolerant resubmission
REP004   njit-safe-kernels     kernels/reference.py compiles under njit
                               on numba-enabled machines
REP005   paired-shm-release    ad-hoc shm publications cannot leak their
                               release closure to an exception
REP006   policy-via-context    engine policy stays in ExecutionContext
                               (no per-knob parameter chains regrowing)
REP007   no-bare-sleep         blocking sleeps route through the sanctioned
                               backoff helper; async code never blocks the
                               event loop (await asyncio.sleep)
REP008   sort-based-dedup      1-D dedups in diffusion/ and sampling/ use
                               sorted_unique, not the hashing np.unique
=======  ====================  ==============================================

Adding a rule: subclass :class:`~repro.devtools.rules.base.Rule` in a
module here, set ``code``/``name``/``hint`` (and ``only_paths`` /
``exempt_paths`` if scoped), implement ``check``, and append an instance
to :data:`ALL_RULES`; the CLI, suppression comments, JSON output, and the
fixture-pair test pattern in ``tests/test_devtools_lint.py`` pick it up
from there.
"""

from __future__ import annotations

from repro.devtools.rules.base import Finding, Module, Rule
from repro.devtools.rules.concurrency import PairedReleaseRule, PicklableDispatchRule
from repro.devtools.rules.dedup import SortedUniqueRule
from repro.devtools.rules.determinism import (
    GlobalStateRandomRule,
    UnseededGeneratorRule,
)
from repro.devtools.rules.kernels import NjitSafeKernelRule
from repro.devtools.rules.policy import ContextPolicyRule
from repro.devtools.rules.sleeps import BlockingSleepRule

#: Every registered rule, in code order.
ALL_RULES: tuple[Rule, ...] = (
    GlobalStateRandomRule(),
    UnseededGeneratorRule(),
    PicklableDispatchRule(),
    NjitSafeKernelRule(),
    PairedReleaseRule(),
    ContextPolicyRule(),
    BlockingSleepRule(),
    SortedUniqueRule(),
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "Module",
    "Rule",
]
