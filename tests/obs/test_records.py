"""Typed trace records: construction, serialization, round-tripping."""

import collections.abc
import json
import typing

import pytest

from repro.obs.records import (
    _MAPPING_FIELDS,
    _TUPLE_FIELDS,
    KIND_FIELDS,
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
    Undispatch,
    record_from_dict,
    record_to_dict,
    records_from_columns,
    records_to_columns,
)

SAMPLES = [
    RunConfig(
        time=0.0, policy="Dyn-Aff", n_processors=4, seed=7,
        jobs=("A", "B"), machine="test", cache_lines=64,
        miss_time_s=1e-6, context_switch_s=1e-4,
        respect_priority=True, use_affinity=True,
    ),
    JobArrival(time=0.0, job="A"),
    JobDeparture(time=3.5, job="A", response_time=3.5, n_reallocations=2),
    JobCancelled(time=2.0, job="B", work_done=1.25),
    CpuFailure(time=4.0, cpu=3),
    CpuRecovery(time=5.0, cpu=3),
    AllocationChange(time=1.0, cpu=2, job="A", prev=None),
    Dispatch(
        time=1.0, cpu=2, job="A", worker=0, affine=True, cheap=False,
        penalty_s=1e-5, switch_s=1e-4, ready_depth=3,
    ),
    Undispatch(time=2.0, cpu=2, job="A", worker=0, reason="preempt"),
    PolicyDecision(
        time=1.0, rule="priority", job="A", cpu=2, reason="test",
        credits={"A": 1.0, "B": -0.5}, allocations={"A": 1, "B": 3},
    ),
    CacheFlush(time=2.0, cpu=2, lines=64),
    CacheBatch(time=2.5, cpu=2, owner="('A', 0)", n=256, hits=200),
    EngineEvent(time=0.5, label="arrival/A"),
    RunEnd(time=9.0, makespan=9.0, events_fired=123),
]


class TestRoundTrip:
    @pytest.mark.parametrize("record", SAMPLES, ids=lambda r: r.kind)
    def test_dict_round_trip(self, record):
        payload = record_to_dict(record)
        assert payload["kind"] == record.kind
        assert record_from_dict(payload) == record

    def test_every_kind_is_registered(self):
        kinds = {record.kind for record in SAMPLES}
        assert kinds == set(RECORD_KINDS)

    def test_records_are_immutable(self):
        with pytest.raises(Exception):
            SAMPLES[1].time = 99.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "no_such_record", "time": 0.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"time": 0.0})

    def test_malformed_fields_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "job_arrival", "time": 0.0, "bogus": 1})

    def test_float_times_survive_exactly(self):
        """JSON floats round-trip bit-exactly (repr serialization)."""
        time = 74.45978109507048
        record = JobArrival(time=time, job="A")
        assert record_from_dict(record_to_dict(record)).time == time


class TestColumns:
    @pytest.mark.parametrize("record", SAMPLES, ids=lambda r: r.kind)
    def test_column_round_trip_through_json(self, record):
        rows = [record, record]
        columns = json.loads(json.dumps(records_to_columns(record.kind, rows)))
        cells = [columns[name] for name in KIND_FIELDS[record.kind]]
        assert records_from_columns(record.kind, cells) == rows

    @pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
    def test_container_fields_match_annotations(self, kind):
        hints = typing.get_type_hints(RECORD_KINDS[kind])
        origins = {name: typing.get_origin(hints[name]) for name in KIND_FIELDS[kind]}
        tuples = tuple(n for n, o in origins.items() if o is tuple)
        mappings = tuple(n for n, o in origins.items() if o is collections.abc.Mapping)
        assert _TUPLE_FIELDS.get(kind, ()) == tuples
        assert _MAPPING_FIELDS.get(kind, ()) == mappings
