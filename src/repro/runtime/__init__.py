"""Execution-policy runtime: the one object every engine layer shares.

:class:`~repro.runtime.context.ExecutionContext` owns all engine policy —
batch sizes and tolerances, pool-reuse, the worker count together with the
lazily created :class:`~repro.parallel.runtime.ParallelRuntime`, the
compact-graph-storage policy, the optional pool store, and the run's
:class:`~repro.runtime.telemetry.Telemetry`.  Construct one at the top of
a run (or let :meth:`repro.experiments.config.ExperimentConfig.to_context`
do it), pass it down as the single ``context=`` argument every engine
accepts, and close it when the run ends.
"""

from repro.runtime.context import ExecutionContext

__all__ = ["ExecutionContext"]
