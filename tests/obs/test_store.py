"""Columnar trace store: round-trip fidelity, indexing, and integrity.

The store's contract is threefold: (1) JSONL <-> columnar conversion is
lossless down to the byte, for any record stream the tracer can emit —
including every open-system disruption kind; (2) the footer index lets a
reader pull one record kind or time range without decoding everything;
(3) any corruption — a flipped byte, a truncated tail — is refused
loudly, never returned as quietly wrong data.  On top of the round trip,
``tests/data/columnar_digests.json`` pins the sha256 of the stored bytes
for a few fixed traces, so a writer change that keeps the round trip but
moves a byte fails here.  Regenerate it (only for an intended format
change) with::

    PYTHONPATH=src python -m tests.obs.test_store
"""

import functools
import hashlib
import json
import os
import re
import struct
import tempfile
import typing
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import DYN_AFF
from repro.core.system import SchedulingSystem
from repro.obs import Tracer
from repro.obs.records import (
    RECORD_KINDS,
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
    RunConfig,
    RunEnd,
    Undispatch,
    record_to_dict,
)
from repro.obs.store import (
    COLUMNAR_SCHEMA,
    DEFAULT_CHUNK_RECORDS,
    ColumnarFormatError,
    columnar_to_jsonl,
    iter_columnar,
    iter_jsonl_records,
    jsonl_to_columnar,
    read_columnar,
    read_footer,
    sniff_format,
    write_columnar,
)
from repro.obs.store.format import CHUNK_MAGIC, END_MAGIC, FOOTER_MAGIC, MAGIC
from repro.reporting.obs_export import trace_to_jsonl
from repro.workloads.opensys.scenario import built_in_scenarios, run_scenario
from tests.core.helpers import flat_job

HERE = os.path.dirname(__file__)
GOLDEN_TRACE = os.path.join(HERE, "golden", "trace.jsonl")
DIGESTS_PATH = os.path.join(HERE, os.pardir, "data", "columnar_digests.json")

# --- hypothesis strategies: one per record kind, all finite-JSON-safe ---

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
names = st.text(alphabet="ABCJob0123456789_", min_size=1, max_size=8)
cpus = st.integers(min_value=0, max_value=63)
counts = st.integers(min_value=0, max_value=10**6)

record_strategies = (
    st.builds(RunConfig, time=times, policy=names, n_processors=cpus,
              seed=counts, jobs=st.tuples(names, names), machine=names,
              cache_lines=counts, miss_time_s=finite,
              context_switch_s=finite, respect_priority=st.booleans(),
              use_affinity=st.booleans()),
    st.builds(JobArrival, time=times, job=names),
    st.builds(JobDeparture, time=times, job=names, response_time=finite,
              n_reallocations=counts),
    st.builds(JobCancelled, time=times, job=names, work_done=finite),
    st.builds(CpuFailure, time=times, cpu=cpus),
    st.builds(CpuRecovery, time=times, cpu=cpus),
    st.builds(AllocationChange, time=times, cpu=cpus,
              job=st.none() | names, prev=st.none() | names),
    st.builds(Dispatch, time=times, cpu=cpus, job=names, worker=counts,
              affine=st.booleans(), cheap=st.booleans(), penalty_s=finite,
              switch_s=finite, ready_depth=counts),
    st.builds(Undispatch, time=times, cpu=cpus, job=names, worker=counts,
              reason=st.sampled_from(("preempt", "yield", "idle", "done"))),
    st.builds(PolicyDecision, time=times,
              rule=st.sampled_from(("A.1", "D.1", "D.2", "D.3", "EQ")),
              job=st.none() | names, cpu=st.none() | cpus, reason=names,
              credits=st.dictionaries(names, finite, max_size=3),
              allocations=st.dictionaries(names, cpus, max_size=3)),
    st.builds(CacheFlush, time=times, cpu=cpus, lines=counts),
    st.builds(CacheBatch, time=times, cpu=cpus, owner=names, n=counts,
              hits=counts),
    st.builds(EngineEvent, time=times, label=names),
    st.builds(RunEnd, time=times, makespan=finite, events_fired=counts),
)
any_record = st.one_of(*record_strategies)
record_streams = st.lists(any_record, min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(records=record_streams, chunk=st.integers(min_value=1, max_value=16))
def test_round_trip_any_record_stream(tmp_path_factory, records, chunk):
    """Arbitrary interleavings of every record kind survive the store."""
    path = tmp_path_factory.mktemp("col") / "t.col"
    write_columnar(str(path), records, chunk_records=chunk)
    back = read_columnar(str(path))
    assert back == records


@settings(max_examples=30, deadline=None)
@given(records=record_streams)
def test_jsonl_round_trip_is_byte_identical(tmp_path_factory, records):
    """JSONL -> columnar -> JSONL reproduces the original bytes exactly."""
    base = tmp_path_factory.mktemp("rt")
    jsonl, col, back = base / "a.jsonl", base / "a.col", base / "b.jsonl"
    jsonl.write_text(trace_to_jsonl(records), encoding="utf-8")
    jsonl_to_columnar(str(jsonl), str(col), chunk_records=7)
    columnar_to_jsonl(str(col), str(back))
    assert back.read_bytes() == jsonl.read_bytes()


def _real_trace():
    tracer = Tracer()
    system = SchedulingSystem(
        [flat_job("A", 6, 0.2, 3), flat_job("B", 6, 0.2, 3)],
        DYN_AFF, n_processors=4, seed=0, tracer=tracer,
    )
    system.run()
    return tracer.records


@pytest.fixture(scope="module")
def real_trace():
    return _real_trace()


def test_every_kind_has_a_strategy():
    covered = {
        cls.kind for cls in (
            RunConfig, JobArrival, JobDeparture, JobCancelled, CpuFailure,
            CpuRecovery, AllocationChange, Dispatch, Undispatch,
            PolicyDecision, CacheFlush, CacheBatch, EngineEvent, RunEnd,
        )
    }
    assert covered == set(RECORD_KINDS)
    assert len(record_strategies) == len(RECORD_KINDS)


def test_footer_index_and_kind_filter(tmp_path, real_trace):
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace, chunk_records=256)
    footer = read_footer(str(path))
    assert footer.n_records == len(real_trace)
    assert sum(footer.kind_counts.values()) == len(real_trace)
    for kind, count in footer.kind_counts.items():
        got = list(iter_columnar(str(path), kinds={kind}))
        assert len(got) == count
        assert all(r.kind == kind for r in got)


def test_time_range_filter(tmp_path, real_trace):
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace, chunk_records=128)
    t_lo = real_trace[len(real_trace) // 3].time
    t_hi = real_trace[2 * len(real_trace) // 3].time
    got = list(iter_columnar(str(path), time_range=(t_lo, t_hi)))
    want = [r for r in real_trace if t_lo <= r.time <= t_hi]
    assert got == want


def test_sniff_format(tmp_path, real_trace):
    col, jsonl = tmp_path / "t.col", tmp_path / "t.jsonl"
    write_columnar(str(col), real_trace)
    jsonl.write_text(trace_to_jsonl(real_trace), encoding="utf-8")
    assert sniff_format(str(col)) == "columnar"
    assert sniff_format(str(jsonl)) == "jsonl"


def test_flipped_byte_fails_digest(tmp_path, real_trace):
    """Every corrupted body byte must be caught by the content digest."""
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace, chunk_records=512)
    blob = bytearray(path.read_bytes())
    # Flip bytes at seeded offsets through the chunk region (skip the
    # 8-byte magic so we exercise the digest, not the magic check).
    for offset in (9, len(blob) // 3, len(blob) // 2, len(blob) - 60):
        corrupt = bytearray(blob)
        corrupt[offset] ^= 0x40
        bad = tmp_path / f"bad{offset}.col"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ColumnarFormatError):
            list(iter_columnar(str(bad)))


def test_truncated_footer_is_refused(tmp_path, real_trace):
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace)
    blob = path.read_bytes()
    for cut in (1, 20, 48, len(blob) // 2):
        bad = tmp_path / f"cut{cut}.col"
        bad.write_bytes(blob[:-cut])
        with pytest.raises(ColumnarFormatError):
            read_footer(str(bad))
        with pytest.raises(ColumnarFormatError):
            list(iter_columnar(str(bad)))


def test_not_a_columnar_file_is_refused(tmp_path):
    bad = tmp_path / "nope.col"
    bad.write_bytes(b"this is not a columnar trace at all, not even close")
    with pytest.raises(ColumnarFormatError):
        read_footer(str(bad))


# --- malformed chunks and footers behind a valid digest ---
#
# The sha256 tail is unkeyed, so a forged file can carry a recomputed
# digest; each shape below must still be refused with a typed error that
# names the file, never a raw KeyError/TypeError/AttributeError.


def _forge(directory, records, chunk=None, footer=None) -> str:
    """Write ``records``, pass each chunk payload through ``chunk`` and the
    footer through ``footer``, and re-frame the file with a fresh digest."""
    good = os.path.join(directory, "good.rct")
    write_columnar(good, records, chunk_records=8)
    with open(good, "rb") as handle:
        data = handle.read()
    index = read_footer(good)
    out = bytearray(MAGIC)
    entries = []
    for info in index.chunks:
        body = data[info.offset + 8 : info.offset + 8 + info.length]
        payload = json.loads(zlib.decompress(body))
        blob = zlib.compress(json.dumps(chunk(payload) if chunk else payload).encode())
        entries.append(dict(info.to_dict(), offset=len(out), length=len(blob)))
        out += CHUNK_MAGIC + struct.pack(">I", len(blob)) + blob
    meta = dict(index.to_dict(), chunks=entries)
    blob = zlib.compress(json.dumps(footer(meta) if footer else meta).encode())
    footer_offset = len(out)
    out += FOOTER_MAGIC + struct.pack(">I", len(blob)) + blob
    out += struct.pack(">Q", footer_offset)
    out += hashlib.sha256(out).digest() + END_MAGIC
    path = os.path.join(directory, "forged.rct")
    with open(path, "wb") as handle:
        handle.write(bytes(out))
    return path


def _with_column(payload, name, value):
    """``payload`` with the first kind's ``name`` column replaced."""
    kind = payload["kind_table"][0]
    columns = dict(payload["columns"], **{kind: dict(payload["columns"][kind])})
    columns[kind][name] = value(columns[kind][name])
    return dict(payload, columns=columns)


def _golden_records():
    return list(iter_jsonl_records(GOLDEN_TRACE))


def test_forged_file_without_changes_reads_back(tmp_path):
    records = _golden_records()
    path = _forge(str(tmp_path), records)
    assert read_columnar(path) == records


MALFORMED_CHUNKS = {
    "kind_missing_from_columns": lambda p: dict(
        p, columns={k: v for k, v in p["columns"].items() if k != p["kind_table"][0]}
    ),
    "payload_is_a_list": lambda p: [p["kind_table"], p["order"], p["columns"]],
    "order_is_not_a_list": lambda p: dict(p, order=len(p["order"])),
    "column_is_not_a_list": lambda p: _with_column(p, "time", len),
    "column_shorter_than_order": lambda p: _with_column(p, "time", lambda c: c[:-1]),
    "column_longer_than_order": lambda p: _with_column(p, "time", lambda c: c + c),
    "field_column_missing": lambda p: dict(
        p, columns=dict(p["columns"], **{p["kind_table"][0]: {}})
    ),
    "kind_columns_not_a_dict": lambda p: dict(
        p, columns=dict(p["columns"], **{p["kind_table"][0]: []})
    ),
    "unknown_kind": lambda p: dict(p, kind_table=["bogus"] + p["kind_table"][1:]),
    "unhashable_kind": lambda p: dict(p, kind_table=[[]] + p["kind_table"][1:]),
    "repeated_kind": lambda p: dict(p, kind_table=p["kind_table"] * 2),
    "order_index_out_of_range": lambda p: dict(p, order=p["order"][:-1] + [99]),
    "order_index_negative": lambda p: dict(p, order=p["order"][:-1] + [-1]),
    "order_index_float": lambda p: dict(p, order=[float(i) for i in p["order"]]),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_CHUNKS))
def test_malformed_chunk_is_a_typed_error(tmp_path, shape):
    path = _forge(str(tmp_path), _golden_records(), chunk=MALFORMED_CHUNKS[shape])
    for verify in (True, False):
        with pytest.raises(ColumnarFormatError, match=re.escape(path)):
            list(iter_columnar(path, verify_digest=verify))


def _chunk_entries(footer, change):
    return dict(footer, chunks=[change(entry) for entry in footer["chunks"]])


MALFORMED_FOOTERS = {
    "footer_is_a_list": lambda f: [f],
    "chunk_entry_is_a_list": lambda f: _chunk_entries(f, lambda e: list(e.values())),
    "chunk_entry_is_a_number": lambda f: _chunk_entries(f, lambda e: 0),
    "chunk_entry_offset_is_a_string": lambda f: _chunk_entries(
        f, lambda e: dict(e, offset=str(e["offset"]))
    ),
    "chunk_entry_kind_counts_is_a_list": lambda f: _chunk_entries(
        f, lambda e: dict(e, kind_counts=list(e["kind_counts"]))
    ),
    "chunk_entry_missing_a_key": lambda f: _chunk_entries(
        f, lambda e: {k: v for k, v in e.items() if k != "time_min"}
    ),
    "chunks_is_not_a_list": lambda f: dict(f, chunks=len(f["chunks"])),
    "fields_is_a_list": lambda f: dict(f, fields=list(f["fields"])),
    "field_names_not_a_list": lambda f: dict(f, fields={k: 1 for k in f["fields"]}),
    "kind_counts_is_a_list": lambda f: dict(f, kind_counts=list(f["kind_counts"])),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_FOOTERS))
def test_malformed_footer_is_a_typed_error(tmp_path, shape):
    path = _forge(str(tmp_path), _golden_records(), footer=MALFORMED_FOOTERS[shape])
    for verify in (True, False):
        with pytest.raises(ColumnarFormatError, match=re.escape(path)):
            read_footer(path, verify_digest=verify)
        with pytest.raises(ColumnarFormatError, match=re.escape(path)):
            list(iter_columnar(path, verify_digest=verify))


def test_forged_schema_still_checked(tmp_path):
    path = _forge(str(tmp_path), _golden_records(),
                  footer=lambda f: dict(f, schema=COLUMNAR_SCHEMA + "x"))
    with pytest.raises(ColumnarFormatError, match="unknown columnar schema"):
        read_footer(path)


def test_jsonl_truncation_refused(tmp_path, real_trace):
    """A JSONL file whose final line lost its newline is refused."""
    path = tmp_path / "t.jsonl"
    text = trace_to_jsonl(real_trace)
    path.write_text(text[:-1], encoding="utf-8")  # drop trailing newline
    with pytest.raises(ValueError, match="truncated"):
        list(iter_jsonl_records(str(path)))


def test_jsonl_stream_matches_batch(tmp_path, real_trace):
    path = tmp_path / "t.jsonl"
    path.write_text(trace_to_jsonl(real_trace), encoding="utf-8")
    assert list(iter_jsonl_records(str(path))) == list(real_trace)


def test_compression_ratio_on_real_trace(tmp_path):
    """The acceptance gate: columnar must be <= 25% of JSONL bytes.

    Uses a run big enough (a few thousand records) for the chunked
    compression to amortize, matching the CI sample trace's scale.
    """
    tracer = Tracer()
    system = SchedulingSystem(
        [flat_job(f"J{i}", 24, 0.2, 4) for i in range(4)],
        DYN_AFF, n_processors=8, seed=0, tracer=tracer,
    )
    system.run()
    jsonl, col = tmp_path / "t.jsonl", tmp_path / "t.col"
    jsonl.write_text(trace_to_jsonl(tracer.records), encoding="utf-8")
    jsonl_to_columnar(str(jsonl), str(col))
    ratio = col.stat().st_size / jsonl.stat().st_size
    assert ratio <= 0.25, f"columnar/jsonl ratio {ratio:.3f} exceeds 0.25"


def test_record_dicts_survive_canonical_json(real_trace):
    """Sanity: every live record is JSON-canonicalizable (the store's
    chunk payloads depend on it)."""
    for record in real_trace[:200]:
        payload = json.dumps(record_to_dict(record), sort_keys=True)
        assert json.loads(payload)["kind"] == record.kind


# --- byte goldens: the stored bytes of fixed traces, pinned by sha256 ---


def _opensys_trace(scenario: str) -> typing.List[object]:
    tracer = Tracer()
    run_scenario(
        built_in_scenarios(lite=True, n_processors=16)[scenario],
        DYN_AFF, seed=0, n_processors=16, tracer=tracer,
    )
    return tracer.records


@functools.lru_cache(maxsize=None)
def digest_inputs() -> typing.Dict[str, typing.Tuple[list, int]]:
    """name -> (records, chunk_records) of every byte-pinned trace."""
    golden = list(iter_jsonl_records(GOLDEN_TRACE))
    return {
        "golden_trace/default": (golden, DEFAULT_CHUNK_RECORDS),
        "golden_trace/chunk7": (golden, 7),
        "real_trace/default": (_real_trace(), DEFAULT_CHUNK_RECORDS),
        "opensys_lite/cancellations/Dyn-Aff/seed0": (
            _opensys_trace("cancellations"), DEFAULT_CHUNK_RECORDS,
        ),
        "opensys_lite/failures/Dyn-Aff/seed0": (
            _opensys_trace("failures"), DEFAULT_CHUNK_RECORDS,
        ),
    }


def columnar_digest(name: str, directory: str) -> str:
    records, chunk = digest_inputs()[name]
    path = os.path.join(directory, "t.rct")
    write_columnar(path, records, chunk_records=chunk)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_digests() -> typing.Dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_digests_cover_every_input():
    assert sorted(load_digests()) == sorted(digest_inputs())


def test_pinned_traces_cover_the_disruption_kinds():
    kinds = {r.kind for records, _ in digest_inputs().values() for r in records}
    assert {"job_cancelled", "cpu_failure", "cpu_recovery", "cache_flush"} <= kinds


@pytest.mark.parametrize("name", sorted(digest_inputs()))
def test_stored_bytes_match_golden(tmp_path, name):
    assert columnar_digest(name, str(tmp_path)) == load_digests()[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    with tempfile.TemporaryDirectory() as scratch:
        pinned = {name: columnar_digest(name, scratch) for name in digest_inputs()}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
