"""Resumable sharded execution of sweep specs over the result cache.

:func:`run_sweep` expands a spec (or several, keeping each distinct
cell once), asks the cache which cells already exist, partitions the
*pending* cells into shards, and fans the shards out over the
ordered-commit process-pool runner
(:func:`repro.engine.parallel.map_items`).  Workers persist each cell
into the cache as they finish it (result file last, atomically — the
commit marker); the parent appends one journal line per completed cell
as each shard commits, in shard order, before acknowledging the shard to
``on_commit``.

Resume is re-execution: run the same spec again and the expansion is
identical (specs expand deterministically), cached cells are skipped,
and only the cells whose results never committed are recomputed.  Since
every cell's payload is a pure function of its config, the assembled
output of an interrupted-then-resumed sweep is bit-identical to an
uninterrupted one — the journal is an audit trail of *when* cells
landed, never the source of truth for *what* they contain (the cache
is; a cell cached after a crash but before its journal line is simply a
hit on resume).

Progress: with ``progress=True`` every computed cell prints labelled
heartbeats to stderr from the process that runs it, and its final
:class:`~repro.obs.telemetry.TelemetrySnapshot` comes home in its
payload under the transient ``"telemetry"`` key — through the same
ordered results as everything else a worker returns.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing

from repro.engine.parallel import map_items, resolve_workers
from repro.obs import Tracer
from repro.obs.telemetry import HeartbeatEmitter, ProgressWriter
from repro.sweep.cache import ResultCache, cell_key, code_fingerprint
from repro.sweep.cells import run_cell, strip_transient
from repro.sweep.spec import SweepCell, SweepSpec

#: Journal line schema (every line is one JSON object tagged with this).
JOURNAL_SCHEMA = "repro.sweep.journal/1"


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    """One cell of a finished sweep: its payload and where it came from."""

    cell: SweepCell
    key: str
    payload: typing.Dict[str, typing.Any]
    cached: bool


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Everything :func:`run_sweep` produced, in spec expansion order
    (first-seen order across several specs)."""

    outcomes: typing.Tuple[CellOutcome, ...]
    n_hits: int
    n_computed: int
    journal_path: typing.Optional[str]

    @property
    def payloads(self) -> typing.Dict[SweepCell, typing.Dict[str, typing.Any]]:
        """cell -> payload, the form the report assemblers consume."""
        return {outcome.cell: outcome.payload for outcome in self.outcomes}


@dataclasses.dataclass(frozen=True)
class SweepStatus:
    """Cache occupancy of a spec without running anything."""

    spec: SweepSpec
    n_cells: int
    n_cached: int
    journal_path: typing.Optional[str]

    @property
    def n_pending(self) -> int:
        return self.n_cells - self.n_cached


def _run_shard(
    shard: typing.Tuple[typing.Tuple[str, str, str, bool], ...],
    collect_metrics: bool,
    collect_profile: bool,
    cache_root: typing.Optional[str],
    fingerprint: str,
    progress: bool = False,
) -> typing.List[typing.Dict[str, typing.Any]]:
    """Compute one shard's cells; persist each into the cache as it lands.

    ``shard`` entries are ``(kind, config_json, key, store_trace)`` —
    plain strings and a flag, so the task pickles cheaply into pool
    workers.  Each cell is cached the moment it finishes (not at shard
    end): a crash mid-shard loses at most the cell in flight.  With
    ``progress`` each cell prints heartbeats to stderr and its payload
    carries its final snapshot under ``"telemetry"`` (never cached).
    """
    cache = ResultCache(cache_root) if cache_root is not None else None
    writer = ProgressWriter() if progress else None
    out: typing.List[typing.Dict[str, typing.Any]] = []
    for kind, config_json, key, store_trace in shard:
        cell = SweepCell(kind=kind, config_json=config_json)
        tracer = Tracer() if cache is not None and store_trace else None
        heartbeat = None
        if writer is not None:
            heartbeat = HeartbeatEmitter(
                writer.snapshot, label=cell.label,
                records_fn=tracer.__len__ if tracer is not None else None,
            )
        payload = run_cell(
            cell,
            collect_metrics=collect_metrics,
            collect_profile=collect_profile,
            tracer=tracer,
            heartbeat=heartbeat,
        )
        if heartbeat is not None:
            heartbeat.finish()  # no-op unless the driver never finished it
            payload["telemetry"] = heartbeat.final
        if cache is not None:
            if tracer is not None:
                from repro.obs.store.format import write_columnar

                os.makedirs(cache.cell_dir(key), exist_ok=True)
                write_columnar(cache.trace_path(key), tracer.records)
            cache.store(cell, key, strip_transient(payload), fingerprint)
        out.append(payload)
    return out


def _served_form(
    payload: typing.Dict[str, typing.Any], collect_metrics: bool
) -> typing.Dict[str, typing.Any]:
    """Shape a payload to the caller's flags (drop unrequested metrics)."""
    if not collect_metrics and payload.get("metrics") is not None:
        return {k: v for k, v in payload.items() if k != "metrics"}
    return payload


def _journal_paths(cache: ResultCache, name: str) -> typing.Tuple[str, str]:
    sweep_dir = os.path.join(cache.root, "sweeps", name)
    return sweep_dir, os.path.join(sweep_dir, "journal.jsonl")


def run_sweep(
    spec: typing.Union[SweepSpec, typing.Sequence[SweepSpec]],
    cache: typing.Optional[ResultCache] = None,
    workers: typing.Optional[int] = None,
    force: bool = False,
    collect_metrics: bool = False,
    collect_profile: bool = False,
    progress: bool = False,
    on_commit: typing.Optional[
        typing.Callable[[int, typing.List[typing.Dict[str, typing.Any]]], None]
    ] = None,
    shard_size: typing.Optional[int] = None,
) -> SweepResult:
    """Run ``spec``, serving cached cells and computing the rest.

    ``spec`` may also be a sequence of specs: their cells run as one
    fan-out, each distinct cell once (cells are equal when kind and
    config are, whatever spec named them), in first-seen order, and the
    journal is named after the specs joined with ``+``.

    With no ``cache`` this is a plain in-memory fan-out.  With one,
    cached cells are loaded (a hit is byte-identical to recomputing —
    cells are pure functions of their config and JSON floats round-trip
    exactly) and pending cells are computed in shards, each worker
    committing its results to the cache cell-by-cell.  ``force=True``
    recomputes everything; ``collect_profile=True`` also bypasses hits,
    because profiles are wall-clock measurements that are never cached.
    ``progress=True`` prints each computed cell's heartbeats to stderr
    and puts its final snapshot in its payload under ``"telemetry"``.

    ``on_commit(shard_index, payloads)`` fires per shard in shard order,
    after the shard's cells are journaled.  Outcomes are returned in
    spec expansion order (first-seen order across several specs)
    regardless of what was cached.
    """
    specs = (spec,) if isinstance(spec, SweepSpec) else tuple(spec)
    name = "+".join(s.name for s in specs)
    traced: typing.Dict[SweepCell, bool] = {}  # cell -> store its trace?
    for s in specs:
        for cell in s.expand():
            traced[cell] = traced.get(cell, False) or s.store_traces
    cells = tuple(traced)
    fingerprint = code_fingerprint()
    keyed = [(cell, cell_key(cell, fingerprint)) for cell in cells]

    hits: typing.Dict[SweepCell, typing.Dict[str, typing.Any]] = {}
    pending: typing.List[typing.Tuple[SweepCell, str]] = []
    serve_hits = cache is not None and not force and not collect_profile
    for cell, key in keyed:
        payload = cache.load(key, cell) if serve_hits else None
        # A cell cached without metrics cannot serve a metrics run: it is
        # recomputed, and re-cached with its snapshot.
        if payload is None or (collect_metrics and payload.get("metrics") is None):
            pending.append((cell, key))
        else:
            hits[cell] = payload

    journal_path: typing.Optional[str] = None
    journal_fh: typing.Optional[typing.TextIO] = None
    if cache is not None:
        sweep_dir, journal_path = _journal_paths(cache, name)
        os.makedirs(sweep_dir, exist_ok=True)
        journal_fh = open(journal_path, "a", encoding="utf-8")

    def journal(event: typing.Dict[str, typing.Any]) -> None:
        # Append-only, flushed and fsynced per line: a crash can truncate
        # the journal only at a line boundary of already-acknowledged work.
        if journal_fh is None:
            return
        event = {"schema": JOURNAL_SCHEMA, **event}
        journal_fh.write(json.dumps(event, sort_keys=True) + "\n")
        journal_fh.flush()
        os.fsync(journal_fh.fileno())

    computed: typing.Dict[SweepCell, typing.Dict[str, typing.Any]] = {}
    shards: typing.List[typing.List[typing.Tuple[SweepCell, str]]] = []
    try:
        journal({
            "event": "run_start",
            "spec": name,
            "kind": "+".join(dict.fromkeys(s.kind for s in specs)),
            "code_fingerprint": fingerprint,
            "n_cells": len(cells),
            "n_cached": len(hits),
            "n_pending": len(pending),
        })
        if pending:
            n_workers = resolve_workers(workers)
            if shard_size is None:
                # Aim for ~4 shards per worker: coarse enough to amortize
                # task overhead, fine enough that a crash or a straggler
                # costs a fraction of the run.
                shard_size = max(1, math.ceil(len(pending) / max(1, 4 * n_workers)))
            if shard_size < 1:
                raise ValueError("shard_size must be positive")
            shards = [
                pending[i:i + shard_size]
                for i in range(0, len(pending), shard_size)
            ]
            tasks = [
                tuple(
                    (cell.kind, cell.config_json, key, traced[cell])
                    for cell, key in shard
                )
                for shard in shards
            ]

            def commit(index: int, payloads: typing.List[dict]) -> None:
                for (cell, key), payload in zip(shards[index], payloads):
                    journal({
                        "event": "cell_done",
                        "shard": index,
                        "key": key,
                        "label": cell.label,
                        "cached": False,
                    })
                if on_commit is not None:
                    on_commit(index, payloads)

            run_shard = functools.partial(
                _run_shard,
                collect_metrics=collect_metrics,
                collect_profile=collect_profile,
                cache_root=cache.root if cache is not None else None,
                fingerprint=fingerprint,
                progress=progress,
            )
            shard_results = map_items(
                run_shard, tasks, workers=workers, on_commit=commit
            )
            for shard, payloads in zip(shards, shard_results):
                for (cell, _), payload in zip(shard, payloads):
                    computed[cell] = payload
        journal({
            "event": "run_end",
            "spec": name,
            "n_computed": len(pending),
            "n_hits": len(hits),
        })
    finally:
        if journal_fh is not None:
            journal_fh.close()

    outcomes = tuple(
        CellOutcome(
            cell=cell,
            key=key,
            payload=_served_form(
                hits[cell] if cell in hits else computed[cell], collect_metrics
            ),
            cached=cell in hits,
        )
        for cell, key in keyed
    )
    return SweepResult(
        outcomes=outcomes,
        n_hits=len(hits),
        n_computed=len(pending),
        journal_path=journal_path,
    )


def sweep_status(spec: SweepSpec, cache: ResultCache) -> SweepStatus:
    """How much of ``spec`` the cache already holds (runs nothing).

    A cell counts as cached when :meth:`ResultCache.load` would serve
    it, so a damaged entry counts as pending (and is evicted here).
    """
    fingerprint = code_fingerprint()
    cells = spec.expand()
    cached = sum(
        1 for cell in cells
        if cache.load(cell_key(cell, fingerprint), cell) is not None
    )
    _, journal_path = _journal_paths(cache, spec.name)
    return SweepStatus(
        spec=spec,
        n_cells=len(cells),
        n_cached=cached,
        journal_path=journal_path if os.path.exists(journal_path) else None,
    )


def sweep_clean(spec: SweepSpec, cache: ResultCache) -> int:
    """Evict every cached cell of ``spec`` (current code fingerprint only).

    Returns the number of entries removed.  Entries keyed by other
    fingerprints or other specs are untouched; the journal is kept as
    history.
    """
    fingerprint = code_fingerprint()
    removed = 0
    for cell in spec.expand():
        if cache.evict(cell_key(cell, fingerprint)):
            removed += 1
    return removed
