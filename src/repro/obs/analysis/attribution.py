"""Time attribution: where every simulated second went.

The paper's central explanation (Sections 5-6) is a *decomposition*:
policies differ because time shifts between useful computation, cache
reload penalty, context-switch overhead, and waiting for a processor.
This module replays a PR 3 trace once and charges every simulated second
to exactly one bucket, in two views:

* **per CPU** (CPU-seconds): at every instant each processor is in
  exactly one state — executing a worker's context-switch path
  (``switch``), its cache reload (``reload``), its useful service
  (``compute``), held idle by its owning job or unallocated (``idle``).
  The per-CPU buckets tile ``[t0, makespan]``, so they sum to
  ``makespan x P`` exactly.
* **per job** (wall-clock seconds): at every instant of a job's
  residency the second is split equally across its running workers and
  charged to their phases; with no worker running it is ``idle`` if the
  job holds processors it cannot use (no runnable thread) and ``wait``
  (processor-wait) if it holds none.  The per-job buckets sum to the
  job's response time exactly.

"Exactly" is literal: all accounting is done in :class:`fractions.Fraction`
arithmetic over the trace's (exactly representable) float timestamps, so
:meth:`TimeAttribution.conservation_errors` checks *equality*, not
closeness — the same discipline as :mod:`repro.obs.replay`'s exact
aggregate reconstruction.  Floats only appear at the reporting boundary.
"""

from __future__ import annotations

import dataclasses
import typing
from fractions import Fraction

from repro.obs.records import (
    AllocationChange,
    Dispatch,
    JobArrival,
    JobDeparture,
    RunConfig,
    RunEnd,
    TraceRecord,
    Undispatch,
)

#: The canonical bucket names, in report order.
BUCKETS: typing.Tuple[str, ...] = ("compute", "reload", "switch", "wait", "idle")

#: CPU states produced by the sweep (``free``/``held`` both report as
#: ``idle`` in the bucket view but stay distinct for the timeline).
CPU_STATES: typing.Tuple[str, ...] = ("free", "held", "switch", "reload", "compute")

_PHASES = ("switch", "reload", "compute")


@dataclasses.dataclass(frozen=True)
class Slice:
    """One elementary interval during which no simulator state changed.

    ``running`` maps cpu -> (job, worker, phase) for busy processors;
    ``owners`` maps cpu -> job for every *owned* processor (busy or held
    idle); ``alive`` is the set of jobs resident in the system.
    """

    start: Fraction
    end: Fraction
    running: typing.Mapping[int, typing.Tuple[str, int, str]]
    owners: typing.Mapping[int, str]
    alive: typing.FrozenSet[str]

    @property
    def duration(self) -> Fraction:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class TimeAttribution:
    """The full two-view decomposition of one traced run."""

    policy: str
    seed: int
    n_processors: int
    t0: Fraction
    makespan: Fraction
    #: job -> bucket -> exact wall-clock seconds (sums to response time)
    per_job: typing.Dict[str, typing.Dict[str, Fraction]]
    #: cpu -> bucket -> exact CPU-seconds (sums to makespan - t0)
    per_cpu: typing.Dict[int, typing.Dict[str, Fraction]]
    #: job -> exact response time (departure - arrival, as Fractions)
    response_times: typing.Dict[str, Fraction]

    def job_buckets(self, job: str) -> typing.Dict[str, float]:
        """One job's buckets as floats, in :data:`BUCKETS` order."""
        return {b: float(self.per_job[job][b]) for b in BUCKETS}

    def cpu_buckets(self, cpu: int) -> typing.Dict[str, float]:
        """One CPU's buckets as floats, in :data:`BUCKETS` order."""
        return {b: float(self.per_cpu[cpu][b]) for b in BUCKETS}

    def totals(self) -> typing.Dict[str, float]:
        """Machine-wide CPU-second totals per bucket."""
        out = {}
        for bucket in BUCKETS:
            out[bucket] = float(
                sum(buckets[bucket] for buckets in self.per_cpu.values())
            )
        return out

    def conservation_errors(self) -> typing.List[str]:
        """Every violated conservation law (empty = buckets conserve exactly).

        Checked in exact rational arithmetic:

        * each CPU's buckets sum to ``makespan - t0``;
        * all CPU buckets together sum to ``(makespan - t0) x P``;
        * each job's buckets sum to its response time.
        """
        errors: typing.List[str] = []
        span = self.makespan - self.t0
        for cpu in sorted(self.per_cpu):
            total = sum(self.per_cpu[cpu].values())
            if total != span:
                errors.append(
                    f"cpu {cpu}: buckets sum to {float(total)!r}, "
                    f"makespan span is {float(span)!r}"
                )
        grand = sum(sum(b.values()) for b in self.per_cpu.values())
        if grand != span * self.n_processors:
            errors.append(
                f"machine: buckets sum to {float(grand)!r}, expected "
                f"makespan x P = {float(span * self.n_processors)!r}"
            )
        for job in sorted(self.per_job):
            total = sum(self.per_job[job].values())
            expected = self.response_times.get(job)
            if expected is not None and total != expected:
                errors.append(
                    f"job {job!r}: buckets sum to {float(total)!r}, "
                    f"response time is {float(expected)!r}"
                )
        return errors


class _Stint:
    """One dispatch..undispatch interval of a worker on a processor."""

    __slots__ = ("cpu", "job", "worker", "start", "end", "switch_s", "penalty_s")

    def __init__(self, record: Dispatch) -> None:
        self.cpu = record.cpu
        self.job = record.job
        self.worker = record.worker
        self.start = Fraction(record.time)
        self.end: typing.Optional[Fraction] = None
        self.switch_s = Fraction(record.switch_s)
        self.penalty_s = Fraction(record.penalty_s)

    def phase_boundaries(self) -> typing.List[typing.Tuple[Fraction, str]]:
        """(time, phase) transitions strictly inside [start, end).

        The dispatch overhead executes context switch first, then cache
        reload, then service — matching the system's refund accounting on
        mid-overhead preemption, so a truncated stint truncates phases in
        the same order the simulator consumed them.
        """
        assert self.end is not None
        out: typing.List[typing.Tuple[Fraction, str]] = []
        t = self.start + self.switch_s
        if self.switch_s > 0 and t < self.end:
            out.append((t, "reload" if self.penalty_s > 0 else "compute"))
        t = t + self.penalty_s
        if self.penalty_s > 0 and t < self.end:
            out.append((t, "compute"))
        return out

    def initial_phase(self) -> str:
        if self.switch_s > 0:
            return "switch"
        if self.penalty_s > 0:
            return "reload"
        return "compute"


def _pair_stints(records: typing.Sequence[TraceRecord]) -> typing.List[_Stint]:
    """Match every Dispatch with its Undispatch (single-placement FIFO)."""
    stints: typing.List[_Stint] = []
    open_by_key: typing.Dict[typing.Tuple[str, int], _Stint] = {}
    end_time: typing.Optional[Fraction] = None
    for record in records:
        if isinstance(record, Dispatch):
            stint = _Stint(record)
            key = (record.job, record.worker)
            if key in open_by_key:
                raise ValueError(
                    f"worker {key} dispatched twice without undispatch "
                    "(trace violates single placement; run the invariant "
                    "checker first)"
                )
            open_by_key[key] = stint
            stints.append(stint)
        elif isinstance(record, Undispatch):
            stint = open_by_key.pop((record.job, record.worker), None)
            if stint is not None:
                stint.end = Fraction(record.time)
        elif isinstance(record, RunEnd):
            end_time = Fraction(record.time)
    for stint in open_by_key.values():
        stint.end = end_time if end_time is not None else stint.start
    return stints


def sweep(records: typing.Sequence[TraceRecord]) -> typing.List[Slice]:
    """Replay ``records`` into elementary constant-state time slices.

    The slices tile ``[first record time, last record time]``; every
    allocation change, dispatch/undispatch, job arrival/departure and
    dispatch-overhead phase transition starts a new slice.  This is the
    shared substrate of :func:`attribute_time`, the interval series, and
    the ASCII timeline.
    """
    records = list(records)
    if not records:
        return []
    stints = _pair_stints(records)

    # (time, seq, apply) events; seq keeps same-time application order
    # deterministic (record order first, synthetic phase edges after the
    # dispatch that created them).
    events: typing.List[typing.Tuple[Fraction, int, typing.Callable[[], None]]] = []
    running: typing.Dict[int, typing.Tuple[str, int, str]] = {}
    owners: typing.Dict[int, str] = {}
    alive: typing.Set[str] = set()

    def _arrive(job: str) -> typing.Callable[[], None]:
        return lambda: alive.add(job)

    def _depart(job: str) -> typing.Callable[[], None]:
        return lambda: alive.discard(job)

    def _own(cpu: int, job: typing.Optional[str]) -> typing.Callable[[], None]:
        def apply() -> None:
            if job is None:
                owners.pop(cpu, None)
            else:
                owners[cpu] = job
        return apply

    def _run(cpu: int, job: str, worker: int, phase: str) -> typing.Callable[[], None]:
        return lambda: running.__setitem__(cpu, (job, worker, phase))

    def _stop(cpu: int) -> typing.Callable[[], None]:
        return lambda: running.pop(cpu, None)

    seq = 0
    stint_iter = iter(stints)
    for record in records:
        time = Fraction(record.time)
        if isinstance(record, JobArrival):
            events.append((time, seq, _arrive(record.job)))
        elif isinstance(record, JobDeparture):
            events.append((time, seq, _depart(record.job)))
        elif isinstance(record, AllocationChange):
            events.append((time, seq, _own(record.cpu, record.job)))
        elif isinstance(record, Dispatch):
            stint = next(stint_iter)
            events.append(
                (time, seq, _run(stint.cpu, stint.job, stint.worker, stint.initial_phase()))
            )
            for edge_time, phase in stint.phase_boundaries():
                seq += 1
                events.append(
                    (edge_time, seq, _run(stint.cpu, stint.job, stint.worker, phase))
                )
        elif isinstance(record, Undispatch):
            events.append((time, seq, _stop(record.cpu)))
        seq += 1

    events.sort(key=lambda item: (item[0], item[1]))
    slices: typing.List[Slice] = []
    prev_time = Fraction(records[0].time)
    end_time = Fraction(records[-1].time)
    index = 0
    while index < len(events):
        event_time = events[index][0]
        if event_time > prev_time:
            slices.append(
                Slice(
                    start=prev_time,
                    end=event_time,
                    running=dict(running),
                    owners=dict(owners),
                    alive=frozenset(alive),
                )
            )
            prev_time = event_time
        # Apply every event at this timestamp before measuring onward.
        while index < len(events) and events[index][0] == event_time:
            events[index][2]()
            index += 1
    if end_time > prev_time:
        slices.append(
            Slice(
                start=prev_time,
                end=end_time,
                running=dict(running),
                owners=dict(owners),
                alive=frozenset(alive),
            )
        )
    return slices


def attribute_time(records: typing.Sequence[TraceRecord]) -> TimeAttribution:
    """Charge every simulated second of a traced run to one bucket.

    Requires a complete scheduling trace (leading
    :class:`~repro.obs.records.RunConfig`, trailing
    :class:`~repro.obs.records.RunEnd` — see
    :func:`repro.reporting.obs_export.stream_trace`).

    Raises:
        ValueError: if the trace lacks the run_config/run_end framing.
    """
    records = list(records)
    config = records[0] if records else None
    if not isinstance(config, RunConfig):
        raise ValueError("time attribution needs a trace starting with run_config")
    run_end = records[-1]
    if not isinstance(run_end, RunEnd):
        raise ValueError("time attribution needs a trace ending with run_end")

    n_processors = config.n_processors
    per_cpu: typing.Dict[int, typing.Dict[str, Fraction]] = {
        cpu: {b: Fraction(0) for b in BUCKETS} for cpu in range(n_processors)
    }
    per_job: typing.Dict[str, typing.Dict[str, Fraction]] = {}
    arrivals: typing.Dict[str, Fraction] = {}
    departures: typing.Dict[str, Fraction] = {}
    for record in records:
        if isinstance(record, JobArrival):
            arrivals[record.job] = Fraction(record.time)
            per_job.setdefault(record.job, {b: Fraction(0) for b in BUCKETS})
        elif isinstance(record, JobDeparture):
            departures[record.job] = Fraction(record.time)

    for piece in sweep(records):
        dt = piece.duration
        # CPU-second view: every processor is in exactly one state.
        by_job: typing.Dict[str, typing.List[str]] = {}
        for cpu in range(n_processors):
            state = piece.running.get(cpu)
            if state is not None:
                job, _worker, phase = state
                per_cpu[cpu][phase] += dt
                by_job.setdefault(job, []).append(phase)
            else:
                per_cpu[cpu]["idle"] += dt
        # Wall-clock view: each alive job's second splits across its
        # running workers (so the shares sum back to dt exactly).
        owned: typing.Dict[str, int] = {}
        for job in piece.owners.values():
            owned[job] = owned.get(job, 0) + 1
        for job in piece.alive:
            buckets = per_job.setdefault(job, {b: Fraction(0) for b in BUCKETS})
            phases = by_job.get(job)
            if phases:
                share = dt / len(phases)
                for phase in phases:
                    buckets[phase] += share
            elif owned.get(job, 0) > 0:
                buckets["idle"] += dt
            else:
                buckets["wait"] += dt

    response_times = {
        job: departures[job] - arrivals[job]
        for job in departures
        if job in arrivals
    }
    return TimeAttribution(
        policy=config.policy,
        seed=config.seed,
        n_processors=n_processors,
        t0=Fraction(config.time),
        makespan=Fraction(run_end.time),
        per_job=per_job,
        per_cpu=per_cpu,
        response_times=response_times,
    )


def cpu_state_segments(
    records: typing.Sequence[TraceRecord],
) -> typing.Dict[int, typing.List[typing.Tuple[float, float, str]]]:
    """Per-CPU (start, end, state) runs for the ASCII timeline renderer.

    States come from :data:`CPU_STATES`; adjacent equal-state slices are
    coalesced.
    """
    config = records[0] if records else None
    if not isinstance(config, RunConfig):
        raise ValueError("timeline needs a trace starting with run_config")
    segments: typing.Dict[int, typing.List[typing.Tuple[float, float, str]]] = {
        cpu: [] for cpu in range(config.n_processors)
    }
    for piece in sweep(records):
        start, end = float(piece.start), float(piece.end)
        for cpu in range(config.n_processors):
            state = piece.running.get(cpu)
            if state is not None:
                label = state[2]
            elif cpu in piece.owners:
                label = "held"
            else:
                label = "free"
            runs = segments[cpu]
            if runs and runs[-1][2] == label and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], end, label)
            else:
                runs.append((start, end, label))
    return segments
