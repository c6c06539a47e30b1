"""Columnar trace store: compact, indexed, integrity-checked containers.

The JSONL trace path materializes full record lists; this package is the
fleet-scale alternative — chunked column-transposed storage with a
footer index for selective reads, a content digest for integrity, and
lossless streaming conversion back to JSONL (see ``format`` and
``convert``; ``docs/observability.md`` documents the byte layout).
"""

from repro.obs.store.convert import (
    FORMATS,
    columnar_to_jsonl,
    iter_jsonl_records,
    iter_trace_file,
    jsonl_to_columnar,
    sniff_format,
)
from repro.obs.store.format import (
    COLUMNAR_SCHEMA,
    DEFAULT_CHUNK_RECORDS,
    ChunkInfo,
    ColumnarFormatError,
    ColumnarTraceWriter,
    Footer,
    iter_columnar,
    read_columnar,
    read_footer,
    write_columnar,
)

__all__ = [
    "COLUMNAR_SCHEMA",
    "DEFAULT_CHUNK_RECORDS",
    "FORMATS",
    "ChunkInfo",
    "ColumnarFormatError",
    "ColumnarTraceWriter",
    "Footer",
    "columnar_to_jsonl",
    "iter_columnar",
    "iter_jsonl_records",
    "iter_trace_file",
    "jsonl_to_columnar",
    "read_columnar",
    "read_footer",
    "sniff_format",
    "write_columnar",
]
