"""The columnar trace container: chunked, indexed, digest-protected.

A ``.rct`` (repro columnar trace) file holds the same record stream as a
JSONL trace, but grouped into *chunks* of consecutive records whose
fields are transposed into per-record-type column arrays and compressed.
Repeated keys vanish and runs of similar values compress together.

Layout (all integers big-endian)::

    offset 0   MAGIC          b"RPTRCOL1"                     8 bytes
               chunk*         b"CHNK" + u32 len + zlib(JSON)
    footer     b"FOOT" + u32 len + zlib(JSON)
    tail       u64 footer offset                              8 bytes
               sha256 of everything above                    32 bytes
               END_MAGIC      b"RPTRCEND"                     8 bytes

Each chunk payload is a canonical (key-sorted, no-whitespace) JSON
object::

    {"kind_table": ["alloc", "dispatch", ...],   # kinds in this chunk
     "order":      [0, 1, 0, ...],               # per record, in stream
                                                 # order, an index into
                                                 # kind_table
     "columns":    {"alloc": {"cpu": [...], "time": [...], ...}, ...}}

so the exact interleaving of record kinds is preserved — decoding walks
``order`` and pops the next row of the named kind's columns, which makes
the JSONL -> columnar -> JSONL round trip byte-identical.  Both directions
work a kind at a time: the writer groups a chunk's records by kind and
fills each column with one pass over that kind's records; the reader
rebuilds each kind's records from its columns, then interleaves them by
``order``.

The footer carries the schema version, per-kind field lists (checked
against :data:`repro.obs.records.RECORD_KINDS` on read, so a file
written by a different record schema fails loudly), total and per-kind
record counts, and a per-chunk index ``(offset, length, n, time range,
kind counts)``.  The trailing sha256 covers every byte before it; a
flipped bit anywhere — chunk, footer, or index — is a refused load, and
a truncated file fails the END_MAGIC check before anything is parsed.

Memory bounds: the writer holds at most ``chunk_records`` records plus
the (small) footer index.  The reader reads the whole compressed file,
to check its digest, and decodes one chunk at a time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import struct
import typing
import zlib

from repro import ioutil
from repro.obs.records import (
    KIND_FIELDS,
    RECORD_KINDS,
    TraceRecord,
    records_from_columns,
    records_to_columns,
)

#: Columnar container schema identifier, bumped on incompatible changes.
COLUMNAR_SCHEMA = "repro.trace.columnar/1"

MAGIC = b"RPTRCOL1"
END_MAGIC = b"RPTRCEND"
CHUNK_MAGIC = b"CHNK"
FOOTER_MAGIC = b"FOOT"
#: u64 footer offset + 32-byte sha256 + END_MAGIC.
_TAIL_LEN = 8 + 32 + 8

#: Default records per chunk: large enough that column compression wins,
#: small enough that a reader's working set stays in cache.
DEFAULT_CHUNK_RECORDS = 4096


class TraceFormatError(ValueError):
    """A trace file, JSONL or columnar, is unreadable, malformed,
    truncated, corrupt or incomplete; the message names the file, and
    the line or record at fault where there is one."""


def _expect(value: typing.Any, expected: type, what: str, source: str) -> typing.Any:
    """``value`` if it is an ``expected``, else a typed error naming ``source``."""
    if not isinstance(value, expected):
        raise TraceFormatError(
            f"{source}: {what} is a {type(value).__name__}, expected a "
            f"{expected.__name__}; the file is malformed"
        )
    return value


_TIME = operator.attrgetter("time")


def _canonical_json(payload: typing.Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _frame(magic: bytes, payload: typing.Any) -> bytes:
    """``magic`` + u32 length + the compressed canonical JSON of ``payload``."""
    blob = zlib.compress(_canonical_json(payload), level=6)
    return magic + struct.pack(">I", len(blob)) + blob


def _encode_chunk(
    rows: typing.List[TraceRecord],
) -> typing.Tuple[bytes, typing.Dict[str, int]]:
    """One chunk's frame and its per-kind record counts."""
    # kind -> (its kind_table index, its records), in first-seen order.
    groups: typing.Dict[str, typing.Tuple[int, typing.List[TraceRecord]]] = {}
    order: typing.List[int] = []
    for record in rows:
        group = groups.get(record.kind)
        if group is None:
            if record.kind not in RECORD_KINDS:
                raise TraceFormatError(
                    f"cannot store unregistered record kind {record.kind!r}"
                )
            group = groups[record.kind] = (len(groups), [])
        order.append(group[0])
        group[1].append(record)
    frame = _frame(
        CHUNK_MAGIC,
        {
            "kind_table": list(groups),
            "order": order,
            "columns": {
                kind: records_to_columns(kind, members)
                for kind, (_, members) in groups.items()
            },
        },
    )
    return frame, {kind: len(members) for kind, (_, members) in groups.items()}


def write_columnar(
    path: str,
    records: typing.Iterable[TraceRecord],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Write ``records`` to ``path`` in columnar form; returns the count.

    Holds at most ``chunk_records`` records at a time.  The file is
    written through :func:`repro.ioutil.atomic_open`: ``path`` gets the
    whole trace, or keeps its old bytes if anything raises first.
    """
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    records = iter(records)
    digest = hashlib.sha256(MAGIC)
    offset = len(MAGIC)
    chunks: typing.List[typing.Dict[str, typing.Any]] = []
    kind_counts: typing.Dict[str, int] = {}
    with ioutil.atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        while True:
            rows = list(itertools.islice(records, chunk_records))
            if not rows:
                break
            frame, counts = _encode_chunk(rows)
            for kind, count in counts.items():
                kind_counts[kind] = kind_counts.get(kind, 0) + count
            times = list(map(_TIME, rows))
            chunks.append({
                "offset": offset,
                "length": len(frame) - 8,
                "n_records": len(rows),
                # Seeded like a running min/max: a NaN time is never a bound.
                "time_min": min(float("inf"), *times),
                "time_max": max(float("-inf"), *times),
                "kind_counts": counts,
            })
            fh.write(frame)
            digest.update(frame)
            offset += len(frame)
        n_records = sum(kind_counts.values())
        footer = _frame(FOOTER_MAGIC, {
            "schema": COLUMNAR_SCHEMA,
            "n_records": n_records,
            "kind_counts": kind_counts,
            "fields": {kind: list(KIND_FIELDS[kind]) for kind in kind_counts},
            "chunks": chunks,
        }) + struct.pack(">Q", offset)
        # The digest covers every byte before it, footer offset included;
        # it is followed only by the end magic.
        digest.update(footer)
        fh.write(footer + digest.digest() + END_MAGIC)
    return n_records


# ---------------------------------------------------------------------- #
# reading


def _chunk_spans(data: bytes, source: str) -> typing.List[typing.Tuple[int, int]]:
    """The ``(offset, length)`` of every chunk, from a checked footer.

    Raises:
        TraceFormatError: on anything that is not a complete, untampered
            columnar trace file: wrong magic, truncated tail, digest
            mismatch, unknown schema, a malformed footer, or a field
            layout that no longer matches the current record definitions.
    """
    if len(data) < len(MAGIC) + _TAIL_LEN:
        raise TraceFormatError(
            f"{source}: file is {len(data)} bytes, smaller than an empty "
            "columnar trace; it was truncated"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise TraceFormatError(
            f"{source}: bad magic {data[:8]!r}; not a columnar trace file"
        )
    if data[-len(END_MAGIC):] != END_MAGIC:
        raise TraceFormatError(
            f"{source}: end marker missing; the file was truncated mid-write "
            "(a complete file always ends with the digest tail)"
        )
    digest_start = len(data) - len(END_MAGIC) - 32
    stored = data[digest_start : digest_start + 32]
    actual = hashlib.sha256(data[:digest_start]).digest()
    if actual != stored:
        raise TraceFormatError(
            f"{source}: content digest mismatch "
            f"(stored {stored.hex()[:16]}..., computed {actual.hex()[:16]}...); "
            "the file is corrupt"
        )
    (footer_offset,) = struct.unpack(">Q", data[digest_start - 8 : digest_start])
    if not len(MAGIC) <= footer_offset <= digest_start - 8:
        raise TraceFormatError(
            f"{source}: footer offset {footer_offset} is outside the file; "
            "the index is corrupt"
        )
    if data[footer_offset : footer_offset + 4] != FOOTER_MAGIC:
        raise TraceFormatError(
            f"{source}: footer marker missing at offset {footer_offset}; "
            "the index is corrupt or truncated"
        )
    (footer_len,) = struct.unpack(
        ">I", data[footer_offset + 4 : footer_offset + 8]
    )
    blob = data[footer_offset + 8 : footer_offset + 8 + footer_len]
    if len(blob) != footer_len:
        raise TraceFormatError(f"{source}: footer payload truncated")
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{source}: footer is unreadable ({exc})") from exc
    _expect(payload, dict, "footer", source)
    schema = payload.get("schema")
    if schema != COLUMNAR_SCHEMA:
        raise TraceFormatError(
            f"{source}: unknown columnar schema {schema!r}; "
            f"this reader understands {COLUMNAR_SCHEMA!r}"
        )
    fields = _expect(payload.get("fields", {}), dict, "footer field table", source)
    for kind, names in fields.items():
        expected = KIND_FIELDS.get(kind)
        if expected is None:
            raise TraceFormatError(
                f"{source}: file contains unknown record kind {kind!r}"
            )
        if names != list(expected):
            raise TraceFormatError(
                f"{source}: field layout for {kind!r} is {names}, but this "
                f"schema expects {list(expected)}; the file was written by an "
                "incompatible record schema"
            )
    _expect(payload.get("kind_counts", {}), dict, "footer kind counts", source)
    chunks = _expect(payload.get("chunks", []), list, "footer chunk index", source)
    return [_chunk_span(entry, source) for entry in chunks]


def _chunk_span(entry: typing.Any, source: str) -> typing.Tuple[int, int]:
    """One checked footer-index entry's ``(offset, length)``."""
    _expect(entry, dict, "footer chunk entry", source)
    try:
        offset, length = entry["offset"], entry["length"]
        n_records, kind_counts = entry["n_records"], entry["kind_counts"]
        time_min, time_max = entry["time_min"], entry["time_max"]
    except KeyError as exc:
        raise TraceFormatError(f"{source}: footer chunk entry missing {exc}") from exc
    if not (
        all(isinstance(x, int) for x in (offset, length, n_records))
        and all(isinstance(x, (int, float)) for x in (time_min, time_max))
        and isinstance(kind_counts, dict)
    ):
        raise TraceFormatError(
            f"{source}: footer chunk entry {entry} has a mistyped field"
        )
    return offset, length


def _decode_chunk(blob: bytes, source: str) -> typing.List[TraceRecord]:
    """One chunk's records in stream order, rebuilt a kind at a time."""
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{source}: chunk is unreadable ({exc})") from exc
    _expect(payload, dict, "chunk payload", source)
    try:
        kind_table = _expect(payload["kind_table"], list, "chunk kind table", source)
        order = _expect(payload["order"], list, "chunk order", source)
        columns = _expect(payload["columns"], dict, "chunk columns", source)
    except KeyError as exc:
        raise TraceFormatError(f"{source}: chunk is unreadable ({exc})") from exc
    for kind in kind_table:
        if not isinstance(kind, str) or kind not in RECORD_KINDS:
            raise TraceFormatError(
                f"{source}: chunk kind table names unknown record kind {kind!r}"
            )
    if len(set(kind_table)) != len(kind_table):
        raise TraceFormatError(
            f"{source}: chunk kind table {kind_table} repeats a kind"
        )
    counts = [order.count(index) for index in range(len(kind_table))]
    if sum(counts) != len(order):
        raise TraceFormatError(
            f"{source}: chunk order references a kind outside its kind table"
        )
    rows = [
        iter(_decode_kind(kind, count, columns, source))
        for kind, count in zip(kind_table, counts)
    ]
    try:
        return list(map(next, map(rows.__getitem__, order)))
    except TypeError as exc:
        # order.count matched 1.0 to 1, but a float is no list index.
        raise TraceFormatError(
            f"{source}: chunk order holds a non-integer kind index ({exc})"
        ) from exc


def _decode_kind(
    kind: str, count: int, columns: typing.Dict[str, typing.Any], source: str
) -> typing.List[TraceRecord]:
    """The ``count`` records of ``kind`` in a chunk, from its columns."""
    if kind not in columns:
        raise TraceFormatError(f"{source}: chunk has no columns for {kind!r}")
    kind_columns = _expect(columns[kind], dict, f"chunk columns of {kind!r}", source)
    cells = []
    for name in KIND_FIELDS[kind]:
        if name not in kind_columns:
            raise TraceFormatError(
                f"{source}: chunk has no {name!r} column for {kind!r}"
            )
        column = _expect(kind_columns[name], list, f"chunk column {kind}.{name}", source)
        if len(column) != count:
            raise TraceFormatError(
                f"{source}: chunk columns for {kind!r} are ragged "
                f"({name!r} has {len(column)} rows, the order lists {count})"
            )
        cells.append(column)
    return records_from_columns(kind, cells)


def iter_columnar(path: str) -> typing.Iterator[TraceRecord]:
    """Stream records from ``path``, decoding one chunk at a time.

    The whole compressed file is read and its digest checked before the
    first record is yielded.

    Raises:
        TraceFormatError: on an unreadable file, on anything
            :func:`_chunk_spans` refuses, and on chunks whose framing or
            columns are damaged.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read columnar trace {path!r}: {exc}") from exc
    for offset, length in _chunk_spans(data, source=path):
        if data[offset : offset + 4] != CHUNK_MAGIC:
            raise TraceFormatError(f"{path}: chunk marker missing at offset {offset}")
        (stored,) = struct.unpack(">I", data[offset + 4 : offset + 8])
        if stored != length:
            raise TraceFormatError(
                f"{path}: chunk at offset {offset} has length {stored}, "
                f"footer index says {length}"
            )
        yield from _decode_chunk(data[offset + 8 : offset + 8 + length], source=path)
