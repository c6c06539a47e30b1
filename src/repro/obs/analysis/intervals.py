"""Windowed interval series over a scheduling trace.

Figures 5-6 of the paper are end-of-run aggregates; the interval series
shows the same quantities *over time*, which is where transient effects
(arrival bursts, reallocation storms after a departure) become visible.
One pass over the :func:`repro.obs.analysis.attribution.sweep` slices
and the point-event records yields, per window:

* **utilization** — busy CPU-seconds / (window span x P); a processor is
  busy while a worker occupies it (switch, reload, or compute);
* **miss_rate** — cache misses / accesses from ``cache_batch`` records;
* **affinity_hit_ratio** — affine reallocations / reallocations, the
  fraction of non-cheap dispatches that landed on a processor whose
  cache still held the worker's footprint (cheap same-processor resumes
  are trivially affine and excluded);
* **realloc_rate** — non-cheap dispatches per second;
* **fragmentation** — distinct owning jobs / owned processors,
  time-weighted over the owned portion of the window (1.0 = every owned
  processor belongs to a different job, 1/k = jobs own k-processor
  blocks; 0.0 while nothing is owned).

Raw counts ship alongside every ratio so consumers can re-weight or
merge windows without re-reading the trace.  Window accounting uses
exact :class:`fractions.Fraction` arithmetic internally; the exported
rows are floats.
"""

from __future__ import annotations

import dataclasses
import typing
from fractions import Fraction

from repro.obs.analysis.attribution import sweep
from repro.obs.records import CacheBatch, Dispatch, RunConfig, RunEnd, TraceRecord

#: Interval-series export schema identifier.
INTERVALS_SCHEMA = "repro.analysis.intervals/1"

#: Column order for window rows (JSON keys and CSV columns).
WINDOW_FIELDS: typing.Tuple[str, ...] = (
    "index",
    "start",
    "end",
    "utilization",
    "accesses",
    "misses",
    "miss_rate",
    "dispatches",
    "reallocations",
    "affine_reallocations",
    "affinity_hit_ratio",
    "realloc_rate",
    "fragmentation",
)


@dataclasses.dataclass(frozen=True)
class IntervalSeries:
    """The windowed series for one traced run."""

    policy: str
    seed: int
    n_processors: int
    window_s: float
    t0: float
    makespan: float
    windows: typing.Tuple[typing.Dict[str, float], ...]


class _Window:
    __slots__ = (
        "start", "end", "busy", "frag_weighted", "owned_time",
        "accesses", "misses", "dispatches", "reallocations", "affine",
    )

    def __init__(self, start: Fraction, end: Fraction) -> None:
        self.start = start
        self.end = end
        self.busy = Fraction(0)
        self.frag_weighted = Fraction(0)
        self.owned_time = Fraction(0)
        self.accesses = 0
        self.misses = 0
        self.dispatches = 0
        self.reallocations = 0
        self.affine = 0


def interval_series(
    records: typing.Sequence[TraceRecord], window_s: float
) -> IntervalSeries:
    """Compute the windowed series for a complete trace.

    Args:
        records: a full trace (``run_config`` first, ``run_end`` last).
        window_s: window width in virtual seconds; the final window is
            clamped to the makespan and may be shorter.

    Raises:
        ValueError: on a non-positive window or missing trace framing.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s!r}")
    records = list(records)
    config = records[0] if records else None
    if not isinstance(config, RunConfig):
        raise ValueError("interval series needs a trace starting with run_config")
    if not isinstance(records[-1], RunEnd):
        raise ValueError("interval series needs a trace ending with run_end")

    t0 = Fraction(config.time)
    end = Fraction(records[-1].time)
    width = Fraction(window_s)
    windows: typing.List[_Window] = []
    cursor = t0
    while cursor < end:
        upper = min(cursor + width, end)
        windows.append(_Window(cursor, upper))
        cursor = upper

    def window_index(time: Fraction) -> int:
        index = int((time - t0) / width)
        return min(index, len(windows) - 1)

    # Point events: cache batches and dispatches land in one window.
    for record in records:
        if not windows:
            break
        if isinstance(record, CacheBatch):
            w = windows[window_index(Fraction(record.time))]
            w.accesses += record.n
            w.misses += record.n - record.hits
        elif isinstance(record, Dispatch):
            w = windows[window_index(Fraction(record.time))]
            w.dispatches += 1
            if not record.cheap:
                w.reallocations += 1
                if record.affine:
                    w.affine += 1

    # Interval state: intersect every constant-state slice with windows.
    for piece in sweep(records):
        if not windows:
            break
        busy_cpus = len(piece.running)
        owned = len(piece.owners)
        distinct = len(set(piece.owners.values())) if owned else 0
        index = window_index(piece.start)
        start = piece.start
        while start < piece.end:
            w = windows[index]
            upper = min(piece.end, w.end)
            overlap = upper - start
            w.busy += overlap * busy_cpus
            if owned:
                w.owned_time += overlap
                w.frag_weighted += overlap * Fraction(distinct, owned)
            start = upper
            index += 1

    rows: typing.List[typing.Dict[str, float]] = []
    for i, w in enumerate(windows):
        span = w.end - w.start
        rows.append(
            {
                "index": i,
                "start": float(w.start),
                "end": float(w.end),
                "utilization": float(w.busy / (span * config.n_processors)),
                "accesses": w.accesses,
                "misses": w.misses,
                "miss_rate": (w.misses / w.accesses) if w.accesses else 0.0,
                "dispatches": w.dispatches,
                "reallocations": w.reallocations,
                "affine_reallocations": w.affine,
                "affinity_hit_ratio": (
                    w.affine / w.reallocations if w.reallocations else 0.0
                ),
                "realloc_rate": float(Fraction(w.reallocations) / span),
                "fragmentation": (
                    float(w.frag_weighted / w.owned_time) if w.owned_time else 0.0
                ),
            }
        )
    return IntervalSeries(
        policy=config.policy,
        seed=config.seed,
        n_processors=config.n_processors,
        window_s=float(width),
        t0=float(t0),
        makespan=float(end),
        windows=tuple(rows),
    )
