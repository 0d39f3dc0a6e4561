"""Test-support subsystems shipped with the library.

Three members, none of them on a production path:

* :mod:`repro.testing.faults` — the deterministic fault-injection harness
  that the fault-tolerance tests and the ``bench_fault_recovery.py`` chaos
  gate use to prove the parallel runtime's recovery paths reproduce the
  clean ``jobs=1`` bytes;
* :mod:`repro.testing.carry` — the straightforward rebuild of a carried
  mRR pool, the oracle for the carry-over tests;
* :mod:`repro.testing.reference` — the one-at-a-time samplers and world
  replay, the eager greedy and fresh-noise CELF, the oracles and
  benchmark baselines for the batched engines (import it explicitly; lint
  rule REP009 keeps it out of production modules).
"""

from repro.testing.faults import FaultInjection

__all__ = ["FaultInjection"]
