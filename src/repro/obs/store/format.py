"""The columnar trace container: chunked, indexed, digest-protected.

A ``.rct`` (repro columnar trace) file holds the same record stream as a
JSONL trace, but grouped into *chunks* of consecutive records whose
fields are transposed into per-record-type column arrays and compressed.
Repeated keys vanish, runs of similar values compress together, and the
footer index makes "give me only the dispatches between t=10 and t=20"
a seek instead of a full-file parse.

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
the (small) footer index; the reader holds one decompressed chunk at a
time.  Neither ever materializes the whole trace.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import operator
import os
import struct
import tempfile
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


class ColumnarFormatError(ValueError):
    """A columnar trace file is corrupt, truncated, or incompatible.

    Subclasses :class:`ValueError` so callers that treat trace-loading
    problems generically (e.g. the CLI's ``TraceStreamError`` handling)
    can catch it without importing this module.
    """


def _expect(value: typing.Any, expected: type, what: str, source: str) -> typing.Any:
    """``value`` if it is an ``expected``, else a typed error naming ``source``."""
    if not isinstance(value, expected):
        raise ColumnarFormatError(
            f"{source}: {what} is a {type(value).__name__}, expected a "
            f"{expected.__name__}; the file is malformed"
        )
    return value


_TIME = operator.attrgetter("time")


def _canonical_json(payload: typing.Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclasses.dataclass(frozen=True)
class ChunkInfo:
    """One chunk's footer-index entry."""

    offset: int
    length: int
    n_records: int
    time_min: float
    time_max: float
    kind_counts: typing.Dict[str, int]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "offset": self.offset,
            "length": self.length,
            "n_records": self.n_records,
            "time_min": self.time_min,
            "time_max": self.time_max,
            "kind_counts": dict(self.kind_counts),
        }

    @classmethod
    def from_dict(cls, data: typing.Mapping[str, typing.Any]) -> "ChunkInfo":
        if not isinstance(data, dict):
            raise ColumnarFormatError(
                f"footer chunk entry is a {type(data).__name__}, expected a dict"
            )
        try:
            offset, length = data["offset"], data["length"]
            n_records, kind_counts = data["n_records"], data["kind_counts"]
            time_min, time_max = data["time_min"], data["time_max"]
        except KeyError as exc:
            raise ColumnarFormatError(f"footer chunk entry missing {exc}") from exc
        if not (
            all(isinstance(x, int) for x in (offset, length, n_records))
            and all(isinstance(x, (int, float)) for x in (time_min, time_max))
            and isinstance(kind_counts, dict)
        ):
            raise ColumnarFormatError(f"footer chunk entry {data} has a mistyped field")
        return cls(
            offset=offset,
            length=length,
            n_records=n_records,
            time_min=time_min,
            time_max=time_max,
            kind_counts=dict(kind_counts),
        )


@dataclasses.dataclass(frozen=True)
class Footer:
    """The parsed footer index of a columnar trace file."""

    schema: str
    n_records: int
    kind_counts: typing.Dict[str, int]
    fields: typing.Dict[str, typing.List[str]]
    chunks: typing.List[ChunkInfo]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "schema": self.schema,
            "n_records": self.n_records,
            "kind_counts": dict(self.kind_counts),
            "fields": {k: list(v) for k, v in self.fields.items()},
            "chunks": [chunk.to_dict() for chunk in self.chunks],
        }


class ColumnarTraceWriter:
    """Chunked append writer for the columnar trace container.

    Usable as a context manager.  Memory use is bounded by
    ``chunk_records`` buffered records regardless of trace length.
    """

    def __init__(
        self,
        target: typing.Union[str, typing.BinaryIO],
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> None:
        if chunk_records < 1:
            raise ValueError("chunk_records must be positive")
        self._dst_path: typing.Optional[str] = None
        self._tmp_path: typing.Optional[str] = None
        if isinstance(target, str):
            # Crash-safe: stream into a same-directory temp file and only
            # os.replace it over the destination once the footer and
            # digest tail are on disk.  A process killed mid-write leaves
            # the destination untouched (at worst an orphaned .tmp-*).
            directory = os.path.dirname(os.path.abspath(target)) or "."
            fd, self._tmp_path = tempfile.mkstemp(
                prefix=ioutil.TMP_PREFIX + os.path.basename(target) + "-",
                dir=directory,
            )
            self._fh: typing.BinaryIO = os.fdopen(fd, "wb")
            self._dst_path = target
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self._chunk_records = chunk_records
        self._buffer: typing.List[TraceRecord] = []
        self._chunks: typing.List[ChunkInfo] = []
        self._kind_counts: typing.Dict[str, int] = {}
        self._n_records = 0
        self._closed = False
        self._digest = hashlib.sha256()
        self._offset = 0
        self._write_bytes(MAGIC)

    # ------------------------------------------------------------------ #

    def _write_bytes(self, data: bytes) -> None:
        self._fh.write(data)
        self._digest.update(data)
        self._offset += len(data)

    def write(self, record: TraceRecord) -> None:
        """Append one record (flushes a chunk when the buffer fills)."""
        if self._closed:
            raise ValueError("writer is closed")
        if record.kind not in RECORD_KINDS:
            raise ColumnarFormatError(
                f"cannot store unregistered record kind {record.kind!r}"
            )
        self._buffer.append(record)
        if len(self._buffer) >= self._chunk_records:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        buffer = self._buffer
        if not buffer:
            return
        # kind -> (its kind_table index, its records), in first-seen order.
        groups: typing.Dict[str, typing.Tuple[int, typing.List[TraceRecord]]] = {}
        order: typing.List[int] = []
        for record in buffer:
            group = groups.get(record.kind)
            if group is None:
                group = groups[record.kind] = (len(groups), [])
            order.append(group[0])
            group[1].append(record)
        payload = zlib.compress(
            _canonical_json(
                {
                    "kind_table": list(groups),
                    "order": order,
                    "columns": {
                        kind: records_to_columns(kind, rows)
                        for kind, (_, rows) in groups.items()
                    },
                }
            ),
            level=6,
        )
        kind_counts = {kind: len(rows) for kind, (_, rows) in groups.items()}
        for kind, count in kind_counts.items():
            self._kind_counts[kind] = self._kind_counts.get(kind, 0) + count
        times = list(map(_TIME, buffer))
        offset = self._offset
        self._write_bytes(CHUNK_MAGIC)
        self._write_bytes(struct.pack(">I", len(payload)))
        self._write_bytes(payload)
        self._chunks.append(
            ChunkInfo(
                offset=offset,
                length=len(payload),
                n_records=len(buffer),
                # Seeded like a running min/max: a NaN time is never a bound.
                time_min=min(float("inf"), *times),
                time_max=max(float("-inf"), *times),
                kind_counts=kind_counts,
            )
        )
        self._n_records += len(buffer)
        self._buffer = []

    def close(self) -> None:
        """Flush the final chunk, write the footer index and the digest tail."""
        if self._closed:
            return
        self._flush_chunk()
        footer = Footer(
            schema=COLUMNAR_SCHEMA,
            n_records=self._n_records,
            kind_counts=dict(self._kind_counts),
            fields={
                kind: list(KIND_FIELDS[kind]) for kind in sorted(self._kind_counts)
            },
            chunks=self._chunks,
        )
        footer_offset = self._offset
        payload = zlib.compress(_canonical_json(footer.to_dict()), level=6)
        self._write_bytes(FOOTER_MAGIC)
        self._write_bytes(struct.pack(">I", len(payload)))
        self._write_bytes(payload)
        self._write_bytes(struct.pack(">Q", footer_offset))
        # The digest covers every byte written so far, footer offset
        # included; it is followed only by the end magic.
        self._fh.write(self._digest.digest())
        self._fh.write(END_MAGIC)
        self._fh.flush()
        if self._owns_fh:
            os.fsync(self._fh.fileno())
            self._fh.close()
            if self._tmp_path is not None:
                assert self._dst_path is not None
                os.replace(self._tmp_path, self._dst_path)
                self._tmp_path = None
        self._closed = True

    def abort(self) -> None:
        """Discard the write: close without ever touching the destination.

        Only meaningful for path targets (caller-owned handles are left
        to the caller).  Idempotent; a no-op after :meth:`close`.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_fh:
            self._fh.close()
            if self._tmp_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self._tmp_path)
                self._tmp_path = None

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # A clean exit publishes; an exception inside the block must not
        # leave a valid-looking but incomplete trace at the destination.
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_columnar(
    path: str,
    records: typing.Iterable[TraceRecord],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Write ``records`` to ``path`` in columnar form; returns the count."""
    count = 0
    with ColumnarTraceWriter(path, chunk_records=chunk_records) as writer:
        for record in records:
            writer.write(record)
            count += 1
    return count


# ---------------------------------------------------------------------- #
# reading


def read_footer(
    path: str, verify_digest: bool = True
) -> Footer:
    """Parse (and by default integrity-check) the footer of ``path``.

    Raises:
        ColumnarFormatError: on anything that is not a complete,
            untampered columnar trace file — wrong magic, truncated
            tail, digest mismatch, unknown schema, or a field layout
            that no longer matches the current record definitions.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ColumnarFormatError(f"cannot read columnar trace {path!r}: {exc}") from exc
    return _parse_footer(data, source=path, verify_digest=verify_digest)


def _parse_footer(data: bytes, source: str, verify_digest: bool = True) -> Footer:
    if len(data) < len(MAGIC) + _TAIL_LEN:
        raise ColumnarFormatError(
            f"{source}: file is {len(data)} bytes, smaller than an empty "
            "columnar trace; it was truncated"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise ColumnarFormatError(
            f"{source}: bad magic {data[:8]!r}; not a columnar trace file"
        )
    if data[-len(END_MAGIC):] != END_MAGIC:
        raise ColumnarFormatError(
            f"{source}: end marker missing; the file was truncated mid-write "
            "(a complete file always ends with the digest tail)"
        )
    digest_start = len(data) - len(END_MAGIC) - 32
    stored = data[digest_start : digest_start + 32]
    if verify_digest:
        actual = hashlib.sha256(data[:digest_start]).digest()
        if actual != stored:
            raise ColumnarFormatError(
                f"{source}: content digest mismatch "
                f"(stored {stored.hex()[:16]}..., computed {actual.hex()[:16]}...); "
                "the file is corrupt"
            )
    (footer_offset,) = struct.unpack(">Q", data[digest_start - 8 : digest_start])
    if not len(MAGIC) <= footer_offset <= digest_start - 8:
        raise ColumnarFormatError(
            f"{source}: footer offset {footer_offset} is outside the file; "
            "the index is corrupt"
        )
    if data[footer_offset : footer_offset + 4] != FOOTER_MAGIC:
        raise ColumnarFormatError(
            f"{source}: footer marker missing at offset {footer_offset}; "
            "the index is corrupt or truncated"
        )
    (footer_len,) = struct.unpack(
        ">I", data[footer_offset + 4 : footer_offset + 8]
    )
    blob = data[footer_offset + 8 : footer_offset + 8 + footer_len]
    if len(blob) != footer_len:
        raise ColumnarFormatError(f"{source}: footer payload truncated")
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ColumnarFormatError(f"{source}: footer is unreadable ({exc})") from exc
    _expect(payload, dict, "footer", source)
    schema = payload.get("schema")
    if schema != COLUMNAR_SCHEMA:
        raise ColumnarFormatError(
            f"{source}: unknown columnar schema {schema!r}; "
            f"this reader understands {COLUMNAR_SCHEMA!r}"
        )
    fields = _expect(payload.get("fields", {}), dict, "footer field table", source)
    for kind, names in fields.items():
        expected = KIND_FIELDS.get(kind)
        if expected is None:
            raise ColumnarFormatError(
                f"{source}: file contains unknown record kind {kind!r}"
            )
        if names != list(expected):
            raise ColumnarFormatError(
                f"{source}: field layout for {kind!r} is {names}, but this "
                f"schema expects {list(expected)}; the file was written by an "
                "incompatible record schema"
            )
    kind_counts = _expect(
        payload.get("kind_counts", {}), dict, "footer kind counts", source
    )
    chunks = _expect(payload.get("chunks", []), list, "footer chunk index", source)
    try:
        infos = [ChunkInfo.from_dict(c) for c in chunks]
    except ColumnarFormatError as exc:
        raise ColumnarFormatError(f"{source}: {exc}") from exc
    return Footer(
        schema=schema,
        n_records=payload.get("n_records", 0),
        kind_counts=dict(kind_counts),
        fields={k: list(v) for k, v in fields.items()},
        chunks=infos,
    )


def _decode_chunk(blob: bytes, source: str) -> typing.List[TraceRecord]:
    """One chunk's records in stream order, rebuilt a kind at a time."""
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ColumnarFormatError(f"{source}: chunk is unreadable ({exc})") from exc
    _expect(payload, dict, "chunk payload", source)
    try:
        kind_table = _expect(payload["kind_table"], list, "chunk kind table", source)
        order = _expect(payload["order"], list, "chunk order", source)
        columns = _expect(payload["columns"], dict, "chunk columns", source)
    except KeyError as exc:
        raise ColumnarFormatError(f"{source}: chunk is unreadable ({exc})") from exc
    for kind in kind_table:
        if not isinstance(kind, str) or kind not in RECORD_KINDS:
            raise ColumnarFormatError(
                f"{source}: chunk kind table names unknown record kind {kind!r}"
            )
    if len(set(kind_table)) != len(kind_table):
        raise ColumnarFormatError(
            f"{source}: chunk kind table {kind_table} repeats a kind"
        )
    counts = [order.count(index) for index in range(len(kind_table))]
    if sum(counts) != len(order):
        raise ColumnarFormatError(
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
        raise ColumnarFormatError(
            f"{source}: chunk order holds a non-integer kind index ({exc})"
        ) from exc


def _decode_kind(
    kind: str, count: int, columns: typing.Dict[str, typing.Any], source: str
) -> typing.List[TraceRecord]:
    """The ``count`` records of ``kind`` in a chunk, from its columns."""
    if kind not in columns:
        raise ColumnarFormatError(f"{source}: chunk has no columns for {kind!r}")
    kind_columns = _expect(columns[kind], dict, f"chunk columns of {kind!r}", source)
    cells = []
    for name in KIND_FIELDS[kind]:
        if name not in kind_columns:
            raise ColumnarFormatError(
                f"{source}: chunk has no {name!r} column for {kind!r}"
            )
        column = _expect(kind_columns[name], list, f"chunk column {kind}.{name}", source)
        if len(column) != count:
            raise ColumnarFormatError(
                f"{source}: chunk columns for {kind!r} are ragged "
                f"({name!r} has {len(column)} rows, the order lists {count})"
            )
        cells.append(column)
    return records_from_columns(kind, cells)


def iter_columnar(
    path: str,
    kinds: typing.Optional[typing.Collection[str]] = None,
    time_range: typing.Optional[typing.Tuple[float, float]] = None,
    verify_digest: bool = True,
) -> typing.Iterator[TraceRecord]:
    """Stream records from ``path``, one decompressed chunk at a time.

    ``kinds`` and ``time_range`` use the footer index to *skip* chunks
    containing no matching record before any decompression happens, then
    filter within the surviving chunks — the O(index) selective-read path.
    Filters preserve stream order.

    Raises:
        ColumnarFormatError: see :func:`read_footer`; also on chunks
            whose framing or columns are damaged.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ColumnarFormatError(f"cannot read columnar trace {path!r}: {exc}") from exc
    footer = _parse_footer(data, source=path, verify_digest=verify_digest)
    wanted = set(kinds) if kinds is not None else None
    for info in footer.chunks:
        if wanted is not None and not any(
            kind in wanted for kind in info.kind_counts
        ):
            continue
        if time_range is not None and (
            info.time_max < time_range[0] or info.time_min > time_range[1]
        ):
            continue
        head = data[info.offset : info.offset + 4]
        if head != CHUNK_MAGIC:
            raise ColumnarFormatError(
                f"{path}: chunk marker missing at offset {info.offset}"
            )
        (length,) = struct.unpack(
            ">I", data[info.offset + 4 : info.offset + 8]
        )
        if length != info.length:
            raise ColumnarFormatError(
                f"{path}: chunk at offset {info.offset} has length {length}, "
                f"footer index says {info.length}"
            )
        blob = data[info.offset + 8 : info.offset + 8 + length]
        records = _decode_chunk(blob, source=path)
        if wanted is not None:
            records = [r for r in records if r.kind in wanted]
        if time_range is not None:
            lo, hi = time_range
            records = [r for r in records if lo <= r.time <= hi]
        yield from records


def read_columnar(
    path: str,
    kinds: typing.Optional[typing.Collection[str]] = None,
    time_range: typing.Optional[typing.Tuple[float, float]] = None,
    verify_digest: bool = True,
) -> typing.List[TraceRecord]:
    """:func:`iter_columnar` materialized into a list (small reads only)."""
    return list(
        iter_columnar(
            path, kinds=kinds, time_range=time_range, verify_digest=verify_digest
        )
    )
