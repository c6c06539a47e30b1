"""Counters, gauges and histograms with deterministic snapshots and merges.

A :class:`MetricsRegistry` is the aggregate-shaped side of observability:
where the tracer records *what happened*, the registry accumulates *how
much*.  A scheduling run's registry is folded from its trace records by
:class:`MetricsFold`, the one place its catalog is written: live, as the
run's tracer, or afterwards through :func:`metrics_from_records`.
Snapshots are plain dicts with a schema tag, fully ordered (keys sorted
at serialization time) and mergeable: merging the per-replication
snapshots of a parallel run **in replication commit order** produces
bit-identical results to a serial run, extending the engine's
determinism contract to metrics (see ``repro.measure.runner``).

Merge semantics per instrument:

* counter — values add;
* gauge — the later snapshot wins (commit order is deterministic);
* histogram — bucket counts, count and sum add; min/max combine.
"""

from __future__ import annotations

import typing

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

#: Snapshot schema identifier, bumped on incompatible layout changes.
#: v2: histogram snapshots carry a derived ``mean`` (= sum/count, 0.0 when
#: empty) so downstream consumers (CSV export, interval series) never
#: recompute it inconsistently.
SNAPSHOT_SCHEMA = "repro.metrics/2"

#: Default histogram bucket upper bounds (seconds-ish scale; the catalog's
#: histograms observe either seconds or small integer depths, both of
#: which resolve well on a coarse geometric ladder).
DEFAULT_BUCKETS: typing.Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0,
)


class Counter:
    """A monotonically-increasing total (ints or float totals alike)."""

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value; ``set`` overwrites."""

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A fixed-bucket histogram with running count/sum/min/max.

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the implicit overflow bucket (``len(bounds)``-th count).
    """

    def __init__(self, bounds: typing.Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds: typing.Tuple[float, ...] = tuple(bounds)
        self.counts: typing.List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: typing.Optional[float] = None
        self.max: typing.Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def mean(self) -> float:
        """Average of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics, created on first use.

    A name identifies exactly one instrument; asking for the same name
    with a different instrument type is an error (it would make snapshots
    ambiguous).
    """

    def __init__(self) -> None:
        self._counters: typing.Dict[str, Counter] = {}
        self._gauges: typing.Dict[str, Gauge] = {}
        self._histograms: typing.Dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------- #

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, "counter")
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, "gauge")
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: typing.Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, "histogram")
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    # -- snapshots ------------------------------------------------------- #

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """The registry as a plain, schema-tagged, mergeable dict."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean(),
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: typing.Mapping[str, typing.Any]) -> None:
        """Fold another registry's snapshot into this one.

        Raises:
            ValueError: on a schema mismatch or incompatible histogram
                bucket bounds.
        """
        validate_snapshot(snapshot)
        for name, value in snapshot["counters"].items():
            self.counter(name).value += value
        for name, value in snapshot["gauges"].items():
            self.gauge(name).set(value)
        for name, data in snapshot["histograms"].items():
            hist = self.histogram(name, data["bounds"])
            if list(hist.bounds) != list(data["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ; cannot merge"
                )
            hist.counts = [a + b for a, b in zip(hist.counts, data["counts"])]
            hist.count += data["count"]
            hist.sum += data["sum"]
            for attr, pick in (("min", min), ("max", max)):
                theirs = data[attr]
                if theirs is not None:
                    mine = getattr(hist, attr)
                    setattr(hist, attr, theirs if mine is None else pick(mine, theirs))

    @classmethod
    def merged(
        cls, snapshots: typing.Iterable[typing.Mapping[str, typing.Any]]
    ) -> typing.Dict[str, typing.Any]:
        """Merge ``snapshots`` in the given order into one snapshot dict."""
        registry = cls()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry.snapshot()


class MetricsFold:
    """A tracer that keeps no records: it folds each one into ``metrics``.

    :meth:`emit` is the scheduling-run metric catalog, applied one record
    at a time, so every float sum runs in the order the run emitted it.
    A run that wants only its metrics passes a fold as its ``tracer``
    and holds about twenty numbers instead of every record; one with a
    stored trace folds it afterwards with :func:`metrics_from_records`.
    Records with no metric (``RunConfig``, ``CacheBatch``,
    ``EngineEvent``) are skipped; the ``penalty/*`` instruments of the
    Section 4 harness have no records and are fed live by
    :class:`~repro.measure.penalty.PenaltyExperiment`.
    """

    #: the simulator's tracer hook reads this: a fold takes no engine events
    capture_engine_events = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def emit(self, record: TraceRecord) -> None:
        """Fold one record into :attr:`metrics`."""
        metrics = self.metrics
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


def metrics_from_records(records: typing.Iterable[TraceRecord]) -> MetricsRegistry:
    """The scheduling-run metric catalog, folded from a run's records.

    The same fold a :class:`MetricsFold` applies as records are emitted.
    """
    fold = MetricsFold()
    for record in records:
        fold.emit(record)
    return fold.metrics


def validate_snapshot(snapshot: typing.Mapping[str, typing.Any]) -> None:
    """Check that ``snapshot`` is structurally valid.

    Raises:
        ValueError: describing the first problem found.
    """
    if not isinstance(snapshot, typing.Mapping):
        raise ValueError("snapshot must be a mapping")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"unknown snapshot schema {snapshot.get('schema')!r}; "
            f"expected {SNAPSHOT_SCHEMA!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        table = snapshot.get(section)
        if not isinstance(table, typing.Mapping):
            raise ValueError(f"snapshot section {section!r} missing or not a mapping")
    for name, value in snapshot["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"counter {name!r} has invalid value {value!r}")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)):
            raise ValueError(f"gauge {name!r} has invalid value {value!r}")
    for name, data in snapshot["histograms"].items():
        if not isinstance(data, typing.Mapping):
            raise ValueError(f"histogram {name!r} is not a mapping")
        for key in ("bounds", "counts", "count", "sum", "mean", "min", "max"):
            if key not in data:
                raise ValueError(f"histogram {name!r} is missing {key!r}")
        expected_mean = data["sum"] / data["count"] if data["count"] else 0.0
        if data["mean"] != expected_mean:
            raise ValueError(
                f"histogram {name!r} mean {data['mean']!r} does not equal "
                f"sum/count ({expected_mean!r})"
            )
        if len(data["counts"]) != len(data["bounds"]) + 1:
            raise ValueError(
                f"histogram {name!r} needs len(bounds)+1 counts, got "
                f"{len(data['counts'])}"
            )
        if sum(data["counts"]) != data["count"]:
            raise ValueError(f"histogram {name!r} bucket counts do not sum to count")
        if list(data["bounds"]) != sorted(data["bounds"]):
            raise ValueError(f"histogram {name!r} bounds are not sorted")
