"""Executable reference for the scheduling-run metric catalog.

:class:`StreamingMetrics` rebuilds, from trace records alone, the
metrics :class:`~repro.core.system.SchedulingSystem` records live in its
:class:`~repro.obs.metrics.MetricsRegistry`.  It plays the role
``tests/core/allocator_spec.py`` plays for the allocator: the live
registry sites in ``core/`` are the one producer of metrics, and
``test_streaming.py`` checks that this record-derived registry gives
the same snapshot, bit for bit, over the 5-policy x 4-scenario x 3-seed
oracle matrix.  Nothing under ``src/`` imports this module.

Every ``metrics.counter(...)`` / ``gauge`` / ``histogram`` call of a
traced run has a record carrying the same value, emitted at the same
point in the event order, so feeding the records in order performs the
identical sequence of float accumulations.  Only the scheduling
catalog is covered: the ``penalty/*`` instruments of the Section 4
harness have no scheduling records.
"""

from __future__ import annotations

import typing

from repro.obs.metrics import MetricsRegistry
from repro.obs.records import (
    AllocationChange,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    JobArrival,
    JobCancelled,
    JobDeparture,
    PolicyDecision,
    RunEnd,
    TraceRecord,
    Undispatch,
)


class StreamingMetrics:
    """Rebuild the scheduling-run metric catalog from the record stream.

    Memory: one :class:`MetricsRegistry` (O(distinct metric names)).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def feed(self, record: TraceRecord) -> None:
        """Apply one record's metric contributions to the registry."""
        metrics = self.registry
        if isinstance(record, Dispatch):
            metrics.counter("dispatch/total").inc()
            metrics.histogram("dispatch/ready_depth").observe(record.ready_depth)
            if not record.cheap:
                metrics.counter("dispatch/reallocations").inc()
                if record.affine:
                    metrics.counter("dispatch/affine").inc()
                metrics.counter("dispatch/cache_penalty_s").inc(record.penalty_s)
                metrics.counter("dispatch/switch_overhead_s").inc(record.switch_s)
                metrics.histogram("dispatch/penalty_s").observe(record.penalty_s)
        elif isinstance(record, Undispatch):
            if record.reason == "preempt":
                metrics.counter("dispatch/preemptions").inc()
        elif isinstance(record, PolicyDecision):
            metrics.counter(f"policy/decisions/{record.rule}").inc()
        elif isinstance(record, AllocationChange):
            metrics.counter("alloc/changes").inc()
        elif isinstance(record, JobArrival):
            metrics.counter("jobs/arrived").inc()
        elif isinstance(record, JobDeparture):
            metrics.counter("jobs/completed").inc()
            metrics.histogram("jobs/response_s").observe(record.response_time)
        elif isinstance(record, JobCancelled):
            metrics.counter("jobs/cancelled").inc()
            metrics.counter("jobs/cancelled_work_s").inc(record.work_done)
        elif isinstance(record, CpuFailure):
            metrics.counter("cpu/failures").inc()
        elif isinstance(record, CacheFlush):
            metrics.counter("cpu/flushed_lines").inc(record.lines)
        elif isinstance(record, CpuRecovery):
            metrics.counter("cpu/recoveries").inc()
        elif isinstance(record, RunEnd):
            metrics.gauge("run/makespan_s").set(record.makespan)
            metrics.counter("run/events_fired").inc(record.events_fired)

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """The derived registry's snapshot (see ``MetricsRegistry``)."""
        return self.registry.snapshot()


def derive_metrics(records: typing.Iterable[TraceRecord]) -> MetricsRegistry:
    """Stream ``records`` through a fresh :class:`StreamingMetrics`."""
    streaming = StreamingMetrics()
    for record in records:
        streaming.feed(record)
    return streaming.registry
