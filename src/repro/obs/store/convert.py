"""JSONL trace files, and reading a trace file of either format.

:func:`write_jsonl` and :func:`~repro.obs.store.format.write_columnar`
are the two trace writers; :func:`iter_trace_file` is the one reader of
both formats.  Each works a record at a time, so converting a trace
(``repro convert``: the target format's writer applied to the source's
reader) holds one chunk, not one run.  A JSONL trace is one key-sorted
``json.dumps`` line per record, newline terminated, and the columnar
store keeps every field value, which is what makes ``jsonl -> columnar
-> jsonl`` byte-identical.
"""

from __future__ import annotations

import json
import typing

from repro import ioutil
from repro.obs.records import TraceRecord, record_from_dict, record_to_dict
from repro.obs.store.format import MAGIC, TraceFormatError, iter_columnar


def sniff_format(path: str) -> str:
    """Identify a trace file as ``"jsonl"`` or ``"columnar"`` by content.

    Columnar files start with the 8-byte magic; JSONL traces start with
    ``{`` (every record line is a JSON object).  Anything else is
    rejected rather than guessed.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC))
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path!r}: {exc}") from exc
    if head == MAGIC:
        return "columnar"
    if head[:1] == b"{":
        return "jsonl"
    if not head:
        # An empty JSONL trace is what write_jsonl writes for no records.
        return "jsonl"
    raise TraceFormatError(
        f"{path}: unrecognized trace format (starts {head!r}); "
        "expected a JSONL trace or a columnar trace file"
    )


def write_jsonl(path: str, records: typing.Iterable[TraceRecord]) -> int:
    """Write ``records`` to ``path`` as JSONL; returns the count.

    The file is written through :func:`repro.ioutil.atomic_open`:
    ``path`` gets the whole trace, or keeps its old bytes if anything
    raises first.
    """
    count = 0
    with ioutil.atomic_open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def iter_jsonl_records(path: str) -> typing.Iterator[TraceRecord]:
    """Stream typed records from a JSONL trace file, line by line.

    A final line without a newline terminator means the artifact was cut
    off mid-record and the whole stream is refused (the error is raised
    before any record from the damaged tail is yielded, but records from
    earlier complete lines may already have been consumed — callers that
    need all-or-nothing semantics should drain to a list).

    Raises:
        TraceFormatError: on unreadable files, malformed lines, or a
            truncated tail, naming the file and the line.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path!r}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"{path}: trace line {lineno} is not UTF-8 ({exc})"
                ) from exc
            if not line.endswith("\n"):
                raise TraceFormatError(
                    f"{path}: trace is truncated: final line has no newline "
                    f"terminator (starts {line[:60]!r}); the artifact was "
                    "cut off mid-record"
                )
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}: trace line {lineno} is not valid JSON ({exc}); "
                    "the artifact is corrupt or was truncated mid-record"
                ) from exc
            try:
                yield record_from_dict(payload)
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}: trace line {lineno}: {exc}"
                ) from exc


def iter_trace_file(
    path: str, fmt: typing.Optional[str] = None
) -> typing.Iterator[TraceRecord]:
    """Stream records from ``path`` in either format (sniffed by default)."""
    if fmt is None:
        fmt = sniff_format(path)
    if fmt == "jsonl":
        return iter_jsonl_records(path)
    if fmt == "columnar":
        return iter_columnar(path)
    raise ValueError(f"unknown trace format {fmt!r}; expected 'jsonl' or 'columnar'")
