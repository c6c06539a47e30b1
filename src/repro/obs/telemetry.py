"""Run telemetry: heartbeat snapshots from live runs.

A matrix sweep fans (scenario × policy × seed) cells out over worker
processes; until a cell finishes, nothing shows how far it has got.
This module adds the missing live signal without touching determinism: a
:class:`HeartbeatEmitter` rides a run's engine trace hook, counts fired
events, and every so often (wall-clock throttled) hands a
:class:`TelemetrySnapshot` — progress only, never results — to a *sink*,
a plain callable.  The sweep's sink is :meth:`ProgressWriter.snapshot`,
which prints a progress line to stderr from whichever process runs the
cell.
The emitter keeps its terminal snapshot (:attr:`HeartbeatEmitter.final`),
which travels home inside the cell's payload like any result, and
:func:`telemetry_summary` folds those finals into the sweep summary.

Telemetry is strictly observational: snapshots carry wall-clock rates,
so their *values* vary run to run, but nothing downstream of a sink
feeds back into scheduling — a run with heartbeats attached commits the
same results, bit for bit, as one without — and a failed progress write
never fails a run (:class:`ProgressWriter`).
"""

from __future__ import annotations

import dataclasses
import sys
import time
import typing

#: Schema identifier of :func:`telemetry_summary`.
TELEMETRY_SCHEMA = "repro.telemetry/1"

#: Wall-clock spacing between heartbeats of one emitter.
MIN_INTERVAL_S = 0.5

#: Events between wall-clock checks: the per-event hook cost must stay
#: negligible, so the clock is only consulted every this many events.
CHECK_EVERY = 1024


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """One heartbeat: where a labelled run is and how fast it is moving."""

    label: str
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


#: Anything that accepts a snapshot (:meth:`ProgressWriter.snapshot`, a
#: list's ``append``).
TelemetrySink = typing.Callable[[TelemetrySnapshot], None]


class HeartbeatEmitter:
    """Counts engine events and emits throttled heartbeats to a sink.

    Attach with ``system.sim.add_trace_hook(emitter.engine_hook)`` (the
    hook fires once per discrete event, whether or not tracing is on)
    and call :meth:`finish` when the run completes: it emits the terminal
    snapshot and keeps it as :attr:`final`.  Between heartbeats the
    per-event cost is one increment and one modulo — the wall clock is
    consulted only every :data:`CHECK_EVERY` events, and a heartbeat goes
    out at most every :data:`MIN_INTERVAL_S` wall seconds.

    ``records_fn`` (e.g. ``lambda: len(tracer)``) reports how many trace
    records the run has produced; omitted, records read 0.
    """

    def __init__(
        self,
        sink: TelemetrySink,
        label: str,
        records_fn: typing.Optional[typing.Callable[[], int]] = None,
        clock: typing.Callable[[], float] = time.monotonic,
    ) -> None:
        self._sink = sink
        self.label = label
        self._records_fn = records_fn
        self._clock = clock
        self._t0 = clock()
        self._events = 0
        self._last_beat_wall = 0.0
        #: The terminal snapshot, once :meth:`finish` has run.
        self.final: typing.Optional[TelemetrySnapshot] = None

    def engine_hook(self, now: float, label: str) -> None:
        """Per-event hook: count, and heartbeat when due."""
        self._events += 1
        if self._events % CHECK_EVERY:
            return
        wall = self._clock() - self._t0
        if wall - self._last_beat_wall < MIN_INTERVAL_S:
            return
        self._beat(sim_s=now, wall_s=wall, final=False)

    def finish(self, sim_s: float = 0.0) -> None:
        """Emit the terminal snapshot and keep it as :attr:`final`
        (idempotent).  A run with no simulated clock (a Table 1 cell)
        finishes at ``sim_s`` 0."""
        if self.final is None:
            self.final = self._beat(
                sim_s=sim_s, wall_s=self._clock() - self._t0, final=True
            )

    def _beat(
        self, sim_s: float, wall_s: float, final: bool
    ) -> TelemetrySnapshot:
        self._last_beat_wall = wall_s
        snapshot = TelemetrySnapshot(
            label=self.label,
            wall_s=wall_s,
            sim_s=sim_s,
            events=self._events,
            records=self._records_fn() if self._records_fn is not None else 0,
            final=final,
        )
        self._sink(snapshot)
        return snapshot


class ProgressWriter:
    """Writes progress lines to stderr; a failed write never fails a run.

    Pool workers share the parent's stderr, so each line goes out as one
    write (``print`` writes the text and the newline separately, and two
    workers' lines would interleave).  Progress is observational, so the
    first ``OSError`` (a reader that hung up, a closed descriptor)
    silences this writer instead of propagating into the cell or the
    sweep.
    """

    def __init__(self) -> None:
        self.silenced = False

    def write(self, line: str) -> None:
        if self.silenced:
            return
        try:
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
        except OSError:
            self.silenced = True

    def snapshot(self, snapshot: TelemetrySnapshot) -> None:
        """A :data:`TelemetrySink`: the snapshot's :func:`progress_line`."""
        self.write(progress_line(snapshot))


def telemetry_summary(
    finals: typing.Sequence[TelemetrySnapshot],
) -> typing.Dict[str, typing.Any]:
    """Whole-sweep totals and the slowest cell, from final snapshots.

    Each computed cell contributes exactly one final snapshot, so every
    cell counts once however many heartbeats it sent; ``cells_seen``
    counts distinct labels.
    """
    total_wall_s = sum(s.wall_s for s in finals)
    total_events = sum(s.events for s in finals)
    slowest = max(finals, key=lambda s: s.wall_s, default=None)
    return {
        "schema": TELEMETRY_SCHEMA,
        "cells_seen": len({s.label for s in finals}),
        "cells_finished": len(finals),
        "total_events": total_events,
        "total_records": sum(s.records for s in finals),
        "total_cell_wall_s": total_wall_s,
        "aggregate_events_per_s": (
            total_events / total_wall_s if total_wall_s > 0 else 0.0
        ),
        "slowest_cell": slowest.label if slowest else None,
        "slowest_cell_wall_s": slowest.wall_s if slowest else 0.0,
    }


def render_telemetry(finals: typing.Sequence[TelemetrySnapshot]) -> str:
    """The ``=== telemetry ===`` block body the CLI prints."""
    info = telemetry_summary(finals)
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



