"""Rebuilding run aggregates from a trace.

A trace is only trustworthy as an oracle if it is *complete*: the
aggregates the untraced run reports must be derivable from the records
alone.  :func:`replay` does that derivation — per-job response times from
arrival/departure timestamps, reallocation and affine-reallocation counts
from non-cheap dispatches — and :func:`verify_replay` checks the result
against a :class:`~repro.core.system.SystemResult` exactly (every
replayed number is computed by the run's own operations on the same
values, so equality is bit-for-bit).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.system import SystemResult
from repro.obs.records import (
    Dispatch,
    JobArrival,
    JobCancelled,
    JobDeparture,
    RunEnd,
    TraceRecord,
)


@dataclasses.dataclass(frozen=True)
class ReplayedJob:
    """Aggregates for one job, rebuilt purely from trace records."""

    name: str
    response_time: float
    n_reallocations: int
    n_affine: int

    @property
    def pct_affinity(self) -> float:
        """Table 3's %affinity, by the run's own formula."""
        if not self.n_reallocations:
            return 0.0
        return 100.0 * self.n_affine / self.n_reallocations


@dataclasses.dataclass(frozen=True)
class ReplaySummary:
    """Everything :func:`replay` could rebuild from the record stream."""

    jobs: typing.Dict[str, ReplayedJob]
    makespan: typing.Optional[float]
    #: job name -> cancellation timestamp (open-system disruptions)
    cancelled: typing.Dict[str, float] = dataclasses.field(default_factory=dict)

    def mean_response_time(self) -> float:
        """Average replayed response time (the paper's primary metric)."""
        if not self.jobs:
            return 0.0
        return sum(j.response_time for j in self.jobs.values()) / len(self.jobs)


def replay(records: typing.Iterable[TraceRecord]) -> ReplaySummary:
    """Derive per-job aggregates from ``records`` alone."""
    arrivals: typing.Dict[str, float] = {}
    departures: typing.Dict[str, float] = {}
    reallocations: typing.Dict[str, int] = {}
    affine: typing.Dict[str, int] = {}
    cancelled: typing.Dict[str, float] = {}
    makespan: typing.Optional[float] = None
    for record in records:
        if isinstance(record, JobArrival):
            arrivals[record.job] = record.time
        elif isinstance(record, JobDeparture):
            departures[record.job] = record.time
        elif isinstance(record, JobCancelled):
            cancelled[record.job] = record.time
        elif isinstance(record, Dispatch):
            if not record.cheap:
                reallocations[record.job] = reallocations.get(record.job, 0) + 1
                if record.affine:
                    affine[record.job] = affine.get(record.job, 0) + 1
        elif isinstance(record, RunEnd):
            makespan = record.makespan
    jobs = {
        name: ReplayedJob(
            name=name,
            response_time=departures[name] - arrivals[name],
            n_reallocations=reallocations.get(name, 0),
            n_affine=affine.get(name, 0),
        )
        for name in departures
        if name in arrivals
    }
    return ReplaySummary(jobs=jobs, makespan=makespan, cancelled=cancelled)


def verify_replay(
    records: typing.Iterable[TraceRecord], result: SystemResult
) -> typing.List[str]:
    """Compare a replayed trace against the run's own result.

    Response times, reallocation counts and Table 3's %affinity must
    match *exactly* (they are computed by identical operations on
    identical values).  Cache-penalty and context-switch totals are not
    compared: a ``dispatch`` record carries the full charge, but a worker
    preempted before its charge was consumed is refunded the rest, which
    no record states, so a sum over dispatches overstates the run's total.

    Returns:
        A list of mismatch descriptions (empty = the trace is complete).
    """
    summary = replay(records)
    problems: typing.List[str] = []
    for name, metrics in result.jobs.items():
        replayed = summary.jobs.get(name)
        if replayed is None:
            problems.append(f"job {name!r} finished but never departed in the trace")
            continue
        if replayed.response_time != metrics.response_time:
            problems.append(
                f"job {name!r}: replayed response time {replayed.response_time!r} "
                f"!= reported {metrics.response_time!r}"
            )
        if replayed.n_reallocations != metrics.n_reallocations:
            problems.append(
                f"job {name!r}: replayed {replayed.n_reallocations} reallocations "
                f"!= reported {metrics.n_reallocations}"
            )
        if replayed.pct_affinity != metrics.pct_affinity:
            problems.append(
                f"job {name!r}: replayed {replayed.pct_affinity!r}% affinity "
                f"!= reported {metrics.pct_affinity!r}%"
            )
    extra = set(summary.jobs) - set(result.jobs)
    if extra:
        problems.append(f"trace contains unreported jobs {sorted(extra)}")
    for name, when in result.cancelled.items():
        replayed_when = summary.cancelled.get(name)
        if replayed_when is None:
            problems.append(
                f"job {name!r} was cancelled but the trace has no "
                "job_cancelled record"
            )
        elif replayed_when != when:
            problems.append(
                f"job {name!r}: replayed cancellation time {replayed_when!r} "
                f"!= reported {when!r}"
            )
    extra_cancelled = set(summary.cancelled) - set(result.cancelled)
    if extra_cancelled:
        problems.append(
            f"trace cancels jobs the run never cancelled {sorted(extra_cancelled)}"
        )
    if summary.makespan is not None and summary.makespan != result.makespan:
        problems.append(
            f"replayed makespan {summary.makespan!r} != reported {result.makespan!r}"
        )
    return problems
