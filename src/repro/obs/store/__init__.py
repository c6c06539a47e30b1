"""Trace files: the JSONL and columnar writers and their one reader.

``format`` holds the columnar container (chunked, column-transposed,
compressed storage with a content digest); ``convert`` holds the JSONL
writer and reader and :func:`iter_trace_file`, which reads either
format; ``docs/observability.md`` documents the byte layout.
"""

from repro.obs.store.convert import (
    iter_jsonl_records,
    iter_trace_file,
    sniff_format,
    write_jsonl,
)
from repro.obs.store.format import (
    COLUMNAR_SCHEMA,
    DEFAULT_CHUNK_RECORDS,
    TraceFormatError,
    iter_columnar,
    write_columnar,
)

__all__ = [
    "COLUMNAR_SCHEMA",
    "DEFAULT_CHUNK_RECORDS",
    "TraceFormatError",
    "iter_columnar",
    "iter_jsonl_records",
    "iter_trace_file",
    "sniff_format",
    "write_columnar",
    "write_jsonl",
]
