"""Typed, timestamped trace records.

Every observable fact about a run — a job arriving, a processor changing
hands, a policy decision with its reasoning, a cache flush — becomes one
immutable record.  Records are plain dataclasses with a stable ``kind``
string, and serialize to flat, key-sorted dicts (see
:func:`record_to_dict` and :mod:`repro.reporting.obs_export`), so a trace
is both a Python object stream and a diff-friendly JSONL artifact.

The record set is the contract the invariant checker
(:mod:`repro.obs.invariants`) and the replay verifier
(:mod:`repro.obs.replay`) consume; extend it, don't repurpose fields.
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


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
class JobArrival(TraceRecord):
    """A job entered the system."""

    kind: typing.ClassVar[str] = "job_arrival"
    job: str


@dataclasses.dataclass(frozen=True)
class JobDeparture(TraceRecord):
    """A job completed; ``response_time`` is the system's own accounting."""

    kind: typing.ClassVar[str] = "job_departure"
    job: str
    response_time: float
    n_reallocations: int


@dataclasses.dataclass(frozen=True)
class AllocationChange(TraceRecord):
    """Processor ``cpu`` changed owner from ``prev`` to ``job`` (None = free)."""

    kind: typing.ClassVar[str] = "alloc"
    cpu: int
    job: typing.Optional[str]
    prev: typing.Optional[str]


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
class JobCancelled(TraceRecord):
    """A job was cancelled (open-system disruption); ``work_done`` is the
    compute it had completed, which conservation checks must still account."""

    kind: typing.ClassVar[str] = "job_cancelled"
    job: str
    work_done: float


@dataclasses.dataclass(frozen=True)
class CpuFailure(TraceRecord):
    """A processor went offline; its private cache contents are lost."""

    kind: typing.ClassVar[str] = "cpu_failure"
    cpu: int


@dataclasses.dataclass(frozen=True)
class CpuRecovery(TraceRecord):
    """A failed processor came back online (cold cache)."""

    kind: typing.ClassVar[str] = "cpu_recovery"
    cpu: int


@dataclasses.dataclass(frozen=True)
class CacheFlush(TraceRecord):
    """A private cache was invalidated (the Section 4 migrating regime)."""

    kind: typing.ClassVar[str] = "cache_flush"
    cpu: int
    lines: int


@dataclasses.dataclass(frozen=True)
class CacheBatch(TraceRecord):
    """One batched access run through a cache (the measurement hot path)."""

    kind: typing.ClassVar[str] = "cache_batch"
    cpu: int
    owner: str
    n: int
    hits: int


@dataclasses.dataclass(frozen=True)
class EngineEvent(TraceRecord):
    """One fired discrete event (verbose; off by default)."""

    kind: typing.ClassVar[str] = "engine_event"
    label: str


@dataclasses.dataclass(frozen=True)
class RunEnd(TraceRecord):
    """Emitted once at run end."""

    kind: typing.ClassVar[str] = "run_end"
    makespan: float
    events_fired: int


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
        ValueError: on an unknown ``kind`` or missing fields.
    """
    kind = data.get("kind")
    cls = RECORD_KINDS.get(typing.cast(str, kind))
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


def records_to_columns(
    kind: str, rows: typing.Sequence[TraceRecord]
) -> typing.Dict[str, typing.List[object]]:
    """Transpose records of one ``kind`` into one list per field.

    Mappings become plain dicts; tuples stay tuples, which JSON writes
    exactly like the lists of :func:`record_to_dict`.
    """
    columns = {
        name: list(map(operator.attrgetter(name), rows))
        for name in KIND_FIELDS[kind]
    }
    for name in _MAPPING_FIELDS.get(kind, ()):
        columns[name] = list(map(dict, columns[name]))
    return columns


def records_from_columns(
    kind: str, columns: typing.Sequence[typing.List[object]]
) -> typing.List[TraceRecord]:
    """Rebuild records of one ``kind`` from equal-length columns given in
    :data:`KIND_FIELDS` order (the inverse of :func:`records_to_columns`
    after a JSON round trip)."""
    cells = list(columns)
    for name in _TUPLE_FIELDS.get(kind, ()):
        at = KIND_FIELDS[kind].index(name)
        cells[at] = [tuple(v) if isinstance(v, list) else v for v in cells[at]]
    return list(map(RECORD_KINDS[kind], *cells))
