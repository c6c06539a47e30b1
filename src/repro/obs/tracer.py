"""Trace collection with a null fast path.

Instrumented code holds an optional tracer (``None`` is off) and guards
every emission::

    tr = self.tracer
    if tr is not None:
        tr.emit(SomeRecord(...))

so that when tracing is off (the default everywhere) the cost is a
single attribute load and branch — and, crucially, the record is *never
constructed*.
"""

from __future__ import annotations

import typing

from repro.obs.records import EngineEvent, TraceRecord


class Tracer:
    """Collects trace records in memory, in emission order.

    Args:
        capture_engine_events: also record every fired discrete event
            (one :class:`~repro.obs.records.EngineEvent` per event —
            verbose; useful for debugging event-ordering questions).
    """

    def __init__(self, capture_engine_events: bool = False) -> None:
        self.capture_engine_events = capture_engine_events
        self.records: typing.List[TraceRecord] = []

    def emit(self, record: TraceRecord) -> None:
        """Append one record."""
        self.records.append(record)

    def engine_hook(self, time: float, label: str) -> None:
        """Adapter for :meth:`repro.engine.simulator.Simulator.add_trace_hook`."""
        self.records.append(EngineEvent(time=time, label=label))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> typing.Iterator[TraceRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"Tracer(records={len(self.records)})"
