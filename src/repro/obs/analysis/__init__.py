"""Trace analytics: turning the PR 3 record stream into explanations.

Four consumers of the trace, one shared replay substrate
(:func:`~repro.obs.analysis.attribution.sweep`):

* :mod:`~repro.obs.analysis.attribution` — exact time attribution:
  every simulated second charged to compute / reload / switch / wait /
  idle, per job and per CPU, with rational-arithmetic conservation laws;
* :mod:`~repro.obs.analysis.intervals` — windowed series of
  utilization, miss rate, affinity-hit ratio, reallocation rate, and
  allocation fragmentation;
* :mod:`~repro.obs.analysis.diff` — aligned two-trace comparison with
  bucket-attributed response-time deltas and the first divergent
  decision;
* :mod:`repro.obs.profiling` — the simulator's own wall-clock profile
  (lives one level up because it profiles *running* code, while this
  package only reads finished traces).
"""

from repro.obs.analysis.attribution import (
    BUCKETS,
    CPU_STATES,
    Slice,
    TimeAttribution,
    attribute_time,
    cpu_state_segments,
    sweep,
)
from repro.obs.analysis.diff import DIFF_SCHEMA, Divergence, TraceDiff, diff_traces
from repro.obs.analysis.intervals import (
    INTERVALS_SCHEMA,
    WINDOW_FIELDS,
    IntervalSeries,
    interval_series,
)

__all__ = [
    "BUCKETS",
    "CPU_STATES",
    "DIFF_SCHEMA",
    "Divergence",
    "INTERVALS_SCHEMA",
    "IntervalSeries",
    "Slice",
    "TimeAttribution",
    "TraceDiff",
    "WINDOW_FIELDS",
    "attribute_time",
    "cpu_state_segments",
    "diff_traces",
    "interval_series",
    "sweep",
]
