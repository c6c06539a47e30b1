"""Typed, timestamped trace records.

Every observable fact about a run — a job arriving, a processor changing
hands, a policy decision with its reasoning, a cache flush — becomes one
immutable record.  Records are plain dataclasses with a stable ``kind``
string, and serialize to flat, key-sorted dicts (see
:func:`record_to_dict` and :func:`repro.obs.store.write_jsonl`), so a trace
is both a Python object stream and a diff-friendly JSONL artifact.

The record set is the contract the invariant checker
(:mod:`repro.obs.invariants`) and the replay verifier
(:mod:`repro.obs.replay`) consume; extend it, don't repurpose fields.

A run's tracer keeps field tuples, not records (see
:mod:`repro.obs.tracer`); records are built for the code that iterates
them, mostly readers of trace files.  So each class has a hand-written
``__init__`` that stores its fields into ``__dict__`` in declaration
order, in place of the generated frozen ``__init__`` (one
``object.__setattr__`` per field).  On CPython 3.11 a 9-field
:class:`Dispatch` builds in 0.46 us against 1.25 us, and takes 224
bytes against 160: the instance dict exists once ``__dict__`` is read.
Storing key by key in one order keeps that dict's keys shared between
instances; a ``dict.update`` call made them 336 bytes each.  The
classes stay frozen dataclasses for equality, ``repr``, hashing and
``dataclasses.replace``; ``slots=True`` is not on Python 3.9, and a
frozen slotted class builds slower than a frozen plain one.
"""

from __future__ import annotations

import dataclasses
import operator
import typing


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """Base of every trace record: a timestamp in virtual seconds."""

    kind: typing.ClassVar[str] = "record"
    time: float


@dataclasses.dataclass(frozen=True, init=False)
class RunConfig(TraceRecord):
    """Emitted once at run start: everything the checkers need to know."""

    kind: typing.ClassVar[str] = "run_config"
    policy: str
    n_processors: int
    seed: int
    jobs: typing.Tuple[str, ...]
    machine: str
    cache_lines: int
    miss_time_s: float
    context_switch_s: float
    respect_priority: bool
    use_affinity: bool

    def __init__(
        self, time, policy, n_processors, seed, jobs, machine, cache_lines, miss_time_s,
        context_switch_s, respect_priority, use_affinity,
    ) -> None:
        d = self.__dict__
        d["time"], d["policy"], d["n_processors"] = time, policy, n_processors
        d["seed"], d["jobs"], d["machine"] = seed, jobs, machine
        d["cache_lines"], d["miss_time_s"] = cache_lines, miss_time_s
        d["context_switch_s"] = context_switch_s
        d["respect_priority"], d["use_affinity"] = respect_priority, use_affinity


@dataclasses.dataclass(frozen=True, init=False)
class JobArrival(TraceRecord):
    """A job entered the system."""

    kind: typing.ClassVar[str] = "job_arrival"
    job: str

    def __init__(self, time, job) -> None:
        d = self.__dict__
        d["time"], d["job"] = time, job


@dataclasses.dataclass(frozen=True, init=False)
class JobDeparture(TraceRecord):
    """A job completed; ``response_time`` is the system's own accounting."""

    kind: typing.ClassVar[str] = "job_departure"
    job: str
    response_time: float
    n_reallocations: int

    def __init__(self, time, job, response_time, n_reallocations) -> None:
        d = self.__dict__
        d["time"], d["job"], d["response_time"] = time, job, response_time
        d["n_reallocations"] = n_reallocations


@dataclasses.dataclass(frozen=True, init=False)
class AllocationChange(TraceRecord):
    """Processor ``cpu`` changed owner from ``prev`` to ``job`` (None = free)."""

    kind: typing.ClassVar[str] = "alloc"
    cpu: int
    job: typing.Optional[str]
    prev: typing.Optional[str]

    def __init__(self, time, cpu, job, prev) -> None:
        d = self.__dict__
        d["time"], d["cpu"], d["job"], d["prev"] = time, cpu, job, prev


@dataclasses.dataclass(frozen=True, init=False)
class Dispatch(TraceRecord):
    """A worker was placed on a processor (a reallocation unless ``cheap``)."""

    kind: typing.ClassVar[str] = "dispatch"
    cpu: int
    job: str
    worker: int
    affine: bool
    cheap: bool
    penalty_s: float
    switch_s: float
    ready_depth: int

    def __init__(
        self, time, cpu, job, worker, affine, cheap, penalty_s, switch_s, ready_depth,
    ) -> None:
        d = self.__dict__
        d["time"], d["cpu"], d["job"], d["worker"] = time, cpu, job, worker
        d["affine"], d["cheap"], d["penalty_s"] = affine, cheap, penalty_s
        d["switch_s"], d["ready_depth"] = switch_s, ready_depth


@dataclasses.dataclass(frozen=True, init=False)
class Undispatch(TraceRecord):
    """A worker left its processor (``reason``: preempt | yield | idle | done).

    ``yield`` is a time-sharing worker leaving at a thread boundary, with
    its next thread in hand, because others wait in the run queue.
    """

    kind: typing.ClassVar[str] = "undispatch"
    cpu: int
    job: str
    worker: int
    reason: str

    def __init__(self, time, cpu, job, worker, reason) -> None:
        d = self.__dict__
        d["time"], d["cpu"], d["job"], d["worker"] = time, cpu, job, worker
        d["reason"] = reason


@dataclasses.dataclass(frozen=True, init=False)
class PolicyDecision(TraceRecord):
    """One allocation decision, with the evidence it was based on.

    ``rule`` names the Section 5 rule ("A.1", "D.1", "D.2", "D.3",
    "priority", "EQ"); ``credits`` snapshots the credit-scheduler state of
    every job the decision weighed, which is what lets the invariant layer
    re-check the priority ordering mechanically.
    """

    kind: typing.ClassVar[str] = "decision"
    rule: str
    job: typing.Optional[str]
    cpu: typing.Optional[int]
    reason: str
    credits: typing.Mapping[str, float] = dataclasses.field(default_factory=dict)
    allocations: typing.Mapping[str, int] = dataclasses.field(default_factory=dict)

    def __init__(
        self, time, rule, job, cpu, reason, credits=None, allocations=None,
    ) -> None:
        d = self.__dict__
        d["time"], d["rule"], d["job"], d["cpu"] = time, rule, job, cpu
        d["reason"], d["credits"] = reason, {} if credits is None else credits
        d["allocations"] = {} if allocations is None else allocations


@dataclasses.dataclass(frozen=True, init=False)
class JobCancelled(TraceRecord):
    """A job was cancelled (open-system disruption); ``work_done`` is the
    compute it had completed, which conservation checks must still account."""

    kind: typing.ClassVar[str] = "job_cancelled"
    job: str
    work_done: float

    def __init__(self, time, job, work_done) -> None:
        d = self.__dict__
        d["time"], d["job"], d["work_done"] = time, job, work_done


@dataclasses.dataclass(frozen=True, init=False)
class CpuFailure(TraceRecord):
    """A processor went offline; its private cache contents are lost."""

    kind: typing.ClassVar[str] = "cpu_failure"
    cpu: int

    def __init__(self, time, cpu) -> None:
        d = self.__dict__
        d["time"], d["cpu"] = time, cpu


@dataclasses.dataclass(frozen=True, init=False)
class CpuRecovery(TraceRecord):
    """A failed processor came back online (cold cache)."""

    kind: typing.ClassVar[str] = "cpu_recovery"
    cpu: int

    def __init__(self, time, cpu) -> None:
        d = self.__dict__
        d["time"], d["cpu"] = time, cpu


@dataclasses.dataclass(frozen=True, init=False)
class CacheFlush(TraceRecord):
    """A private cache was invalidated (the Section 4 migrating regime)."""

    kind: typing.ClassVar[str] = "cache_flush"
    cpu: int
    lines: int

    def __init__(self, time, cpu, lines) -> None:
        d = self.__dict__
        d["time"], d["cpu"], d["lines"] = time, cpu, lines


@dataclasses.dataclass(frozen=True, init=False)
class CacheBatch(TraceRecord):
    """One batched access run through a cache (the measurement hot path)."""

    kind: typing.ClassVar[str] = "cache_batch"
    cpu: int
    owner: str
    n: int
    hits: int

    def __init__(self, time, cpu, owner, n, hits) -> None:
        d = self.__dict__
        d["time"], d["cpu"], d["owner"], d["n"], d["hits"] = time, cpu, owner, n, hits


@dataclasses.dataclass(frozen=True, init=False)
class EngineEvent(TraceRecord):
    """One fired discrete event (verbose; off by default)."""

    kind: typing.ClassVar[str] = "engine_event"
    label: str

    def __init__(self, time, label) -> None:
        d = self.__dict__
        d["time"], d["label"] = time, label


@dataclasses.dataclass(frozen=True, init=False)
class RunEnd(TraceRecord):
    """Emitted once at run end."""

    kind: typing.ClassVar[str] = "run_end"
    makespan: float
    events_fired: int

    def __init__(self, time, makespan, events_fired) -> None:
        d = self.__dict__
        d["time"], d["makespan"], d["events_fired"] = time, makespan, events_fired


#: kind string -> record class, for deserialization.
RECORD_KINDS: typing.Dict[str, type] = {
    cls.kind: cls
    for cls in (
        RunConfig,
        JobArrival,
        JobDeparture,
        JobCancelled,
        CpuFailure,
        CpuRecovery,
        AllocationChange,
        Dispatch,
        Undispatch,
        PolicyDecision,
        CacheFlush,
        CacheBatch,
        EngineEvent,
        RunEnd,
    )
}


#: kind -> its field names in declaration (= constructor) order: the key
#: set of a record's dict form and the column layout of the columnar store.
KIND_FIELDS: typing.Dict[str, typing.Tuple[str, ...]] = {
    kind: tuple(field.name for field in dataclasses.fields(cls))
    for kind, cls in RECORD_KINDS.items()
}


#: kind -> a function from a record to its field values, a tuple in
#: :data:`KIND_FIELDS` order (every kind has two fields or more): the row
#: the tracer keeps for that record.
RECORD_ROW: typing.Dict[str, typing.Callable[[TraceRecord], tuple]] = {
    kind: operator.attrgetter(*fields) for kind, fields in KIND_FIELDS.items()
}


#: The fields annotated as tuples (JSON lists on disk) and as mappings
#: (stored as plain dicts); the record tests check these against the
#: annotations, so a new container field cannot be missed.
_TUPLE_FIELDS: typing.Dict[str, typing.Tuple[str, ...]] = {
    RunConfig.kind: ("jobs",),
}
_MAPPING_FIELDS: typing.Dict[str, typing.Tuple[str, ...]] = {
    PolicyDecision.kind: ("credits", "allocations"),
}


def record_to_dict(record: TraceRecord) -> typing.Dict[str, object]:
    """Flatten a record to a plain dict, with its ``kind`` included."""
    kind = record.kind
    out: typing.Dict[str, object] = {"kind": kind}
    for name in KIND_FIELDS[kind]:
        out[name] = getattr(record, name)
    for name in _TUPLE_FIELDS.get(kind, ()):
        out[name] = list(getattr(record, name))
    for name in _MAPPING_FIELDS.get(kind, ()):
        out[name] = dict(getattr(record, name))
    return out


def record_from_dict(data: typing.Mapping[str, object]) -> TraceRecord:
    """Rebuild a typed record from :func:`record_to_dict` output.

    Raises:
        ValueError: on data that is not a dict, a missing or unknown
            ``kind``, or missing fields.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"trace record is a {type(data).__name__}, expected a JSON object"
        )
    kind = data.get("kind")
    cls = RECORD_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown trace record kind {kind!r}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    for name in _TUPLE_FIELDS.get(cls.kind, ()):
        if isinstance(kwargs.get(name), list):
            kwargs[name] = tuple(kwargs[name])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"malformed {kind!r} record: {exc}") from exc


def rows_to_columns(
    kind: str, rows: typing.Sequence[tuple]
) -> typing.Dict[str, typing.Sequence[object]]:
    """Transpose rows of one ``kind`` (field tuples in :data:`KIND_FIELDS`
    order, as a tracer keeps them) into one column per field.

    Mappings become plain dicts; other values are kept as they are, and
    JSON writes a tuple exactly like the lists of :func:`record_to_dict`.
    """
    columns: typing.Dict[str, typing.Sequence[object]] = dict(
        zip(KIND_FIELDS[kind], zip(*rows))
    )
    for name in _MAPPING_FIELDS.get(kind, ()):
        columns[name] = list(map(dict, columns[name]))
    return columns


def records_from_columns(
    kind: str, columns: typing.Sequence[typing.List[object]]
) -> typing.List[TraceRecord]:
    """Rebuild records of one ``kind`` from equal-length columns given in
    :data:`KIND_FIELDS` order (the inverse of :func:`rows_to_columns`
    after a JSON round trip)."""
    cells = list(columns)
    for name in _TUPLE_FIELDS.get(kind, ()):
        at = KIND_FIELDS[kind].index(name)
        cells[at] = [tuple(v) if isinstance(v, list) else v for v in cells[at]]
    return list(map(RECORD_KINDS[kind], *cells))
