"""Exporters for the observability layer.

Deterministic byte-for-byte formats for every observability artifact:

* **traces** — written by :func:`repro.obs.store.write_jsonl` and
  :func:`repro.obs.store.write_columnar`; :func:`stream_trace` reads
  either format back into typed records, which is what lets a written
  trace be replayed as a correctness oracle later, or on another
  machine;
* **metrics snapshots** — the :meth:`MetricsRegistry.snapshot` dict as
  key-sorted JSON, or several snapshots as one wide CSV;
* **analysis results** — time attribution, interval series and trace
  diffs as schema-tagged key-sorted JSON/CSV, mirroring the snapshot
  discipline.

Every export is validated before serialization, so a malformed snapshot
fails loudly at the producer rather than silently downstream; the
serializers return strings, which callers put on disk with
:func:`repro.ioutil.atomic_write_text`.  Every trace *import* goes
through :func:`stream_trace`, which turns a truncated, mid-record or
ill-framed artifact into a :class:`~repro.obs.store.TraceFormatError`
naming the file and the offending line or record instead of a bare
``json.JSONDecodeError``.
"""

from __future__ import annotations

import json
import typing

from repro.obs.analysis.attribution import BUCKETS, TimeAttribution
from repro.obs.analysis.diff import DIFF_SCHEMA, TraceDiff
from repro.obs.analysis.intervals import (
    INTERVALS_SCHEMA,
    WINDOW_FIELDS,
    IntervalSeries,
)
from repro.obs.metrics import validate_snapshot
from repro.obs.records import RunConfig, RunEnd, TraceRecord
from repro.obs.store import TraceFormatError, iter_trace_file
from repro.reporting.export import rows_to_csv, to_plain

#: Time-attribution export schema identifier.
ATTRIBUTION_SCHEMA = "repro.analysis.attribution/1"


def stream_trace(
    path: str, fmt: typing.Optional[str] = None
) -> typing.Iterator[TraceRecord]:
    """Stream a frame-checked trace from ``path``, record by record.

    Accepts both JSONL and columnar trace files (``fmt`` forces one;
    ``None`` sniffs by content).  Applies the framing rules the
    analysis layer (attribution, interval series, diff) requires
    *incrementally* — exactly one leading ``run_config``, exactly one
    trailing ``run_end`` — so a truncated or incomplete artifact still
    fails loudly, but a million-record trace is never materialized:
    memory is O(1) in trace length.

    Being a generator, framing errors surface during iteration; callers
    that need all-or-nothing semantics drain it to a list first.

    Raises:
        TraceFormatError: on unreadable, truncated, malformed, corrupt,
            or incomplete artifacts — always naming the file.
    """
    n = 0
    ended = False
    for record in iter_trace_file(path, fmt=fmt):
        n += 1
        if n == 1:
            if not isinstance(record, RunConfig):
                raise TraceFormatError(
                    f"{path} does not start with a run_config record "
                    f"(got {record.kind!r}); not a complete run artifact"
                )
        else:
            if ended:
                raise TraceFormatError(
                    f"{path} record {n - 1} is a premature run_end"
                )
            if isinstance(record, RunConfig):
                raise TraceFormatError(
                    f"{path} record {n} is a second run_config; "
                    "analysis expects one run per artifact"
                )
        if isinstance(record, RunEnd):
            ended = True
        yield record
    if n == 0:
        raise TraceFormatError(f"{path} is empty")
    if not ended:
        raise TraceFormatError(
            f"{path} does not end with a run_end record; the run was cut off"
        )


def snapshot_to_json(snapshot: typing.Mapping[str, typing.Any]) -> str:
    """A metrics snapshot as key-sorted, newline-terminated JSON."""
    validate_snapshot(snapshot)
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def snapshots_to_csv(
    snapshots: typing.Sequence[typing.Mapping[str, typing.Any]],
    labels: typing.Optional[typing.Sequence[str]] = None,
) -> str:
    """Several snapshots as one wide CSV under a *stable* union header.

    One row per snapshot (first column: its label), one column per
    flattened metric — ``counter:<name>``, ``gauge:<name>``, or
    ``histogram:<name>:<field>``.  The header is the key-sorted union
    over **all** snapshots, so snapshots with disjoint key sets (a
    failures cell has ``cpu/failures``; a steady cell does not) still
    align column-for-column; a metric a snapshot never touched exports
    as an empty cell.  Per-snapshot sorting alone cannot give this —
    columns would shift between rows.
    """
    snapshots = list(snapshots)
    if labels is None:
        labels = [str(i) for i in range(len(snapshots))]
    labels = list(labels)
    if len(labels) != len(snapshots):
        raise ValueError(
            f"{len(snapshots)} snapshots but {len(labels)} labels"
        )
    flattened: typing.List[typing.Dict[str, object]] = []
    for snapshot in snapshots:
        validate_snapshot(snapshot)
        row: typing.Dict[str, object] = {}
        for name, value in snapshot["counters"].items():
            row[f"counter:{name}"] = value
        for name, value in snapshot["gauges"].items():
            row[f"gauge:{name}"] = value
        for name, data in snapshot["histograms"].items():
            for field in ("count", "sum", "mean", "min", "max"):
                row[f"histogram:{name}:{field}"] = data[field]
        flattened.append(row)
    columns = sorted(set().union(*flattened)) if flattened else []
    header = ["label"] + columns
    rows = [
        [label] + [row.get(column, "") for column in columns]
        for label, row in zip(labels, flattened)
    ]
    return rows_to_csv(header, rows)


# --------------------------------------------------------------------- #
# analysis exports


def attribution_to_dict(
    attribution: TimeAttribution,
) -> typing.Dict[str, typing.Any]:
    """A :class:`TimeAttribution` as a schema-tagged plain dict.

    Exact Fractions become floats here — this is the reporting boundary;
    conservation has already been checked upstream in rational
    arithmetic.
    """
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "policy": attribution.policy,
        "seed": attribution.seed,
        "n_processors": attribution.n_processors,
        "t0": float(attribution.t0),
        "makespan": float(attribution.makespan),
        "buckets": list(BUCKETS),
        "per_cpu": {
            str(cpu): attribution.cpu_buckets(cpu)
            for cpu in sorted(attribution.per_cpu)
        },
        "per_job": {
            job: attribution.job_buckets(job)
            for job in sorted(attribution.per_job)
        },
        "totals": attribution.totals(),
        "response_times": {
            job: float(rt)
            for job, rt in sorted(attribution.response_times.items())
        },
    }


def attribution_to_json(attribution: TimeAttribution) -> str:
    """Time attribution as key-sorted, newline-terminated JSON."""
    return json.dumps(attribution_to_dict(attribution), sort_keys=True, indent=2) + "\n"


def attribution_to_csv(attribution: TimeAttribution) -> str:
    """Time attribution flattened to CSV: one row per (view, entity, bucket)."""
    rows: typing.List[typing.Sequence[object]] = []
    for cpu in sorted(attribution.per_cpu):
        buckets = attribution.cpu_buckets(cpu)
        for bucket in BUCKETS:
            rows.append(["cpu", str(cpu), bucket, buckets[bucket]])
    for job in sorted(attribution.per_job):
        buckets = attribution.job_buckets(job)
        for bucket in BUCKETS:
            rows.append(["job", job, bucket, buckets[bucket]])
    return rows_to_csv(["view", "entity", "bucket", "seconds"], rows)


def intervals_to_json(series: IntervalSeries) -> str:
    """An interval series as key-sorted, newline-terminated JSON."""
    plain = {"schema": INTERVALS_SCHEMA, **to_plain(series)}
    return json.dumps(plain, sort_keys=True, indent=2) + "\n"


def intervals_to_csv(series: IntervalSeries) -> str:
    """An interval series as CSV, one row per window."""
    rows = [
        [window[field] for field in WINDOW_FIELDS] for window in series.windows
    ]
    return rows_to_csv(list(WINDOW_FIELDS), rows)


def diff_to_json(diff: TraceDiff) -> str:
    """A trace diff as key-sorted, newline-terminated JSON."""
    plain = {"schema": DIFF_SCHEMA, **to_plain(diff)}
    return json.dumps(plain, sort_keys=True, indent=2) + "\n"
