"""Run telemetry: heartbeat snapshots from live runs to a watching parent.

A matrix sweep fans (scenario × policy × seed) cells out over worker
processes; until a cell finishes, the parent knows nothing.  This module
adds the missing live signal without touching determinism: a
:class:`HeartbeatEmitter` rides a run's engine trace hook, counts fired
events, and every so often (wall-clock throttled) pushes a
:class:`TelemetrySnapshot` — progress only, never results — into a
*sink*.  Sinks are plain callables; :class:`TelemetryChannel` provides
the cross-process one (a managed queue drained by a parent thread) and
:class:`TelemetryCollector` folds whatever arrives into a summary.

Telemetry is strictly observational: snapshots carry wall-clock rates,
so their *values* vary run to run, but nothing downstream of a sink
feeds back into scheduling — a run with heartbeats attached commits the
same results, bit for bit, as one without.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
import typing

#: Schema identifier of :meth:`TelemetryCollector.summary`.
TELEMETRY_SCHEMA = "repro.telemetry/1"

#: Default wall-clock spacing between heartbeats of one emitter.
DEFAULT_MIN_INTERVAL_S = 0.5

#: Events between wall-clock checks: the per-event hook cost must stay
#: negligible, so the clock is only consulted every this many events.
DEFAULT_CHECK_EVERY = 1024


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """One heartbeat: where a labelled run is and how fast it is moving."""

    label: str
    seq: int
    wall_s: float
    sim_s: float
    events: int
    records: int
    final: bool

    @property
    def events_per_s(self) -> float:
        """Fired events per wall-clock second so far."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def progress_line(snapshot: TelemetrySnapshot) -> str:
    """One human-readable progress line for a snapshot."""
    state = "done" if snapshot.final else "running"
    return (
        f"[{snapshot.label}] {state}: sim t={snapshot.sim_s:.3f}s "
        f"events={snapshot.events} ({snapshot.events_per_s:,.0f}/s) "
        f"records={snapshot.records} wall={snapshot.wall_s:.2f}s"
    )


#: Anything that accepts a snapshot (collector, queue sink, print shim).
TelemetrySink = typing.Callable[[TelemetrySnapshot], None]


class HeartbeatEmitter:
    """Counts engine events and emits throttled heartbeats to a sink.

    Attach with ``system.sim.add_trace_hook(emitter.engine_hook)`` (the
    hook fires once per discrete event, whether or not tracing is on)
    and call :meth:`finish` when the run completes so the parent always
    sees a terminal snapshot.  Between heartbeats the per-event cost is
    one increment and one modulo — the wall clock is consulted only
    every ``check_every`` events, and a heartbeat goes out at most every
    ``min_interval_s`` wall seconds.

    ``records_fn`` (e.g. ``lambda: len(tracer)``) reports how many trace
    records the run has produced; omitted, records read 0.
    """

    def __init__(
        self,
        sink: TelemetrySink,
        label: str,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
        check_every: int = DEFAULT_CHECK_EVERY,
        records_fn: typing.Optional[typing.Callable[[], int]] = None,
        clock: typing.Callable[[], float] = time.monotonic,
    ) -> None:
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be non-negative")
        if check_every < 1:
            raise ValueError("check_every must be positive")
        self._sink = sink
        self.label = label
        self._min_interval_s = min_interval_s
        self._check_every = check_every
        self._records_fn = records_fn
        self._clock = clock
        self._t0 = clock()
        self._events = 0
        self._seq = 0
        self._last_beat_wall = 0.0
        self._finished = False

    def engine_hook(self, now: float, label: str) -> None:
        """Per-event hook: count, and heartbeat when due."""
        self._events += 1
        if self._events % self._check_every:
            return
        wall = self._clock() - self._t0
        if wall - self._last_beat_wall < self._min_interval_s:
            return
        self._beat(sim_s=now, wall_s=wall, final=False)

    def finish(self, sim_s: float) -> None:
        """Emit the terminal snapshot (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._beat(sim_s=sim_s, wall_s=self._clock() - self._t0, final=True)

    def _beat(self, sim_s: float, wall_s: float, final: bool) -> None:
        self._last_beat_wall = wall_s
        snapshot = TelemetrySnapshot(
            label=self.label,
            seq=self._seq,
            wall_s=wall_s,
            sim_s=sim_s,
            events=self._events,
            records=self._records_fn() if self._records_fn is not None else 0,
            final=final,
        )
        self._seq += 1
        self._sink(snapshot)


class TelemetryCollector:
    """Thread-safe accumulator for heartbeats from any number of cells.

    Keeps the latest snapshot per label plus whole-sweep totals folded
    from *final* snapshots only (so a cell is counted exactly once no
    matter how many heartbeats it sent).  ``__call__`` makes it usable
    directly as a sink.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latest: typing.Dict[str, TelemetrySnapshot] = {}
        self.n_finished = 0
        self.total_events = 0
        self.total_records = 0
        self.total_wall_s = 0.0

    def __call__(self, snapshot: TelemetrySnapshot) -> None:
        with self._lock:
            self.latest[snapshot.label] = snapshot
            if snapshot.final:
                self.n_finished += 1
                self.total_events += snapshot.events
                self.total_records += snapshot.records
                self.total_wall_s += snapshot.wall_s

    def summary(self) -> typing.Dict[str, typing.Any]:
        """Whole-sweep totals and the slowest finished cell."""
        with self._lock:
            finished = [s for s in self.latest.values() if s.final]
            slowest = max(finished, key=lambda s: s.wall_s) if finished else None
            return {
                "schema": TELEMETRY_SCHEMA,
                "cells_seen": len(self.latest),
                "cells_finished": self.n_finished,
                "total_events": self.total_events,
                "total_records": self.total_records,
                "total_cell_wall_s": self.total_wall_s,
                "aggregate_events_per_s": (
                    self.total_events / self.total_wall_s
                    if self.total_wall_s > 0
                    else 0.0
                ),
                "slowest_cell": slowest.label if slowest else None,
                "slowest_cell_wall_s": slowest.wall_s if slowest else 0.0,
            }

    def render_summary(self) -> str:
        """The ``=== telemetry ===`` block body the CLI prints."""
        info = self.summary()
        lines = [
            f"cells: {info['cells_seen']} seen, "
            f"{info['cells_finished']} finished",
            f"events: {info['total_events']} total, "
            f"{info['aggregate_events_per_s']:,.0f}/s per-cell aggregate",
            f"records: {info['total_records']} total",
            f"cell wall time: {info['total_cell_wall_s']:.2f}s summed",
        ]
        if info["slowest_cell"] is not None:
            lines.append(
                f"slowest cell: {info['slowest_cell']} "
                f"({info['slowest_cell_wall_s']:.2f}s wall)"
            )
        return "\n".join(lines) + "\n"


class _QueueSink:
    """A picklable sink that forwards snapshots into a managed queue.

    The queue proxy from ``multiprocessing.Manager`` survives pickling
    into ``ProcessPoolExecutor`` workers, which is what lets worker-side
    emitters reach the parent's collector.
    """

    def __init__(self, queue: typing.Any) -> None:
        self._queue = queue

    def __call__(self, snapshot: TelemetrySnapshot) -> None:
        self._queue.put(snapshot)


class TelemetryChannel:
    """Parent-side plumbing from worker heartbeats to one ``on_snapshot``.

    Serial (``workers <= 1``): :attr:`sink` is the callback itself — no
    queue, no thread, heartbeats are delivered synchronously.  Parallel:
    :attr:`sink` is a picklable queue sink, and a daemon thread drains
    the queue into the callback until :meth:`close` (which also joins
    the thread and shuts the manager down, delivering everything the
    workers sent first).  Use as a context manager around the fan-out.
    """

    def __init__(self, workers: int, on_snapshot: TelemetrySink) -> None:
        self.on_snapshot = on_snapshot
        self._manager: typing.Optional[typing.Any] = None
        self._queue: typing.Optional[typing.Any] = None
        self._thread: typing.Optional[threading.Thread] = None
        if workers > 1:
            import multiprocessing.managers

            from repro.engine.parallel import exit_with_parent

            self._manager = multiprocessing.managers.SyncManager()
            self._manager.start(exit_with_parent)
            self._queue = self._manager.Queue()
            self.sink: TelemetrySink = _QueueSink(self._queue)
            self._thread = threading.Thread(
                target=self._drain, name="telemetry-drain", daemon=True
            )
            self._thread.start()
        else:
            self.sink = on_snapshot

    def _drain(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            if item is None:  # close() sentinel
                return
            self.on_snapshot(item)

    def close(self) -> None:
        """Flush and tear down (no-op for the serial direct path)."""
        if self._thread is not None:
            assert self._queue is not None and self._manager is not None
            self._queue.put(None)
            self._thread.join()
            self._manager.shutdown()
            self._thread = None
            self._manager = None
            self._queue = None

    def __enter__(self) -> "TelemetryChannel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
