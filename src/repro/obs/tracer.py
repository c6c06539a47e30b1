"""Trace collection with a null fast path, stored as columns.

Instrumented code holds an optional tracer (``None`` is off) and guards
every emission::

    tr = self.tracer
    if tr is not None:
        tr.emit(JobArrival, self.sim.now, job.name)

``emit(kind, *fields)`` takes the record class and its field values in
:data:`~repro.obs.records.KIND_FIELDS` order.  When tracing is off (the
default everywhere) the cost is a single attribute load and branch; when
it is on, the tracer appends the class to one ``order`` list and the
field tuple to that class's row list, and builds no record.  Records
are built only for code that iterates them (:attr:`Tracer.records`);
the columnar writer and the metric fold
(:meth:`~repro.obs.metrics.MetricsFold.emit_rows`) read the rows.
"""

from __future__ import annotations

import itertools
import typing

from repro.obs.records import RECORD_KINDS, EngineEvent, TraceRecord


class Tracer:
    """Collects a run's trace in memory, in emission order.

    Attributes:
        order: the record class of every emission, in emission order.
        rows: record class -> the field tuples of its emissions, in
            emission order; one entry per registered record kind.

    Args:
        capture_engine_events: also record every fired discrete event
            (one :class:`~repro.obs.records.EngineEvent` per event —
            verbose; useful for debugging event-ordering questions).
    """

    def __init__(self, capture_engine_events: bool = False) -> None:
        self.capture_engine_events = capture_engine_events
        self.order: typing.List[type] = []
        self.rows: typing.Dict[type, typing.List[tuple]] = {
            cls: [] for cls in RECORD_KINDS.values()
        }

    def emit(self, kind: type, *fields: typing.Any) -> None:
        """Append one ``kind`` record, given as its field values.

        Raises:
            KeyError: for a record class that is not registered (the
                trace is left as it was).
        """
        self.rows[kind].append(fields)
        self.order.append(kind)

    def engine_hook(self, time: float, label: str) -> None:
        """Adapter for :meth:`repro.engine.simulator.Simulator.add_trace_hook`."""
        self.emit(EngineEvent, time, label)

    @property
    def records(self) -> typing.List[TraceRecord]:
        """Every record, built on this read (a new list each time)."""
        return list(self)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> typing.Iterator[TraceRecord]:
        """The records, each built as it is reached."""
        built = {
            kind: itertools.starmap(kind, kind_rows)
            for kind, kind_rows in self.rows.items()
        }
        return map(next, map(built.__getitem__, self.order))

    def __repr__(self) -> str:
        return f"Tracer(records={len(self)})"
