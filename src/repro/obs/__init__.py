"""Observability: structured tracing, metrics, and trace-derived oracles.

The subsystem has eight pieces:

* :mod:`repro.obs.records` — typed, timestamped trace records;
* :mod:`repro.obs.tracer` — collection (:class:`Tracer`) with a null
  fast path (``tracer is None``) cheap enough to leave compiled into
  every hot path;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with
  deterministic, order-stable snapshots and merges, and the scheduling
  catalog folded from a run's records as they are emitted
  (:class:`MetricsFold`) or afterwards (:func:`metrics_from_records`);
* :mod:`repro.obs.invariants` / :mod:`repro.obs.replay` — the payoff:
  the trace replayed as a correctness oracle (simulator-wide invariants,
  and aggregate reconstruction that must match the untraced run);
* :mod:`repro.obs.analysis` — trace analytics: exact time attribution,
  windowed interval series, and trace diffing;
* :mod:`repro.obs.store` — trace files: one writer per format
  (``write_jsonl``, ``write_columnar``) and the one reader of both
  (:func:`repro.obs.store.iter_trace_file`);
* :mod:`repro.obs.telemetry` — heartbeat snapshots from live runs
  (progress, rates), printed to stderr by the process running each
  cell, and the summary folded from each cell's final snapshot;
* :mod:`repro.obs.profiling` — wall-clock self-profiling of the
  simulator itself: a cell run under cProfile, folded into one row per
  ``repro`` module.
"""

from repro.obs.invariants import StreamingChecker, assert_trace_ok, check_trace

from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsFold,
    MetricsRegistry,
    metrics_from_records,
    validate_snapshot,
)
from repro.obs.records import (
    AllocationChange,
    CacheBatch,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    EngineEvent,
    JobArrival,
    JobCancelled,
    JobDeparture,
    PolicyDecision,
    RECORD_KINDS,
    RunConfig,
    RunEnd,
    TraceRecord,
    Undispatch,
    record_from_dict,
    record_to_dict,
)
from repro.obs.profiling import PROFILE_SCHEMA, validate_profile
from repro.obs.tracer import Tracer

__all__ = [
    "AllocationChange",
    "CacheBatch",
    "CacheFlush",
    "Counter",
    "CpuFailure",
    "CpuRecovery",
    "Dispatch",
    "EngineEvent",
    "Gauge",
    "Histogram",
    "JobArrival",
    "JobCancelled",
    "JobDeparture",
    "MetricsFold",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "PolicyDecision",
    "RECORD_KINDS",
    "RunConfig",
    "RunEnd",
    "SNAPSHOT_SCHEMA",
    "StreamingChecker",
    "TraceRecord",
    "Tracer",
    "Undispatch",
    "assert_trace_ok",
    "check_trace",
    "metrics_from_records",
    "record_from_dict",
    "record_to_dict",
    "validate_profile",
    "validate_snapshot",
]
