"""Run telemetry: throttled heartbeats, final snapshots, and non-interference.

The contract under test: emitters beat on the engine hook with bounded
per-event cost (wall clock consulted only every ``CHECK_EVERY`` events,
beats spaced ``MIN_INTERVAL_S`` apart), every computed cell of every
kind lands exactly one final snapshot in its payload, the summary folds
totals from those finals, a broken stderr never fails a run, and — the
load-bearing property — a sweep with progress on commits results
bit-identical to one without.
"""

import json

import pytest

from repro.cli import main
from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.obs.telemetry import (
    CHECK_EVERY,
    MIN_INTERVAL_S,
    HeartbeatEmitter,
    ProgressWriter,
    TelemetrySnapshot,
    progress_line,
    render_telemetry,
    telemetry_summary,
)
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import strip_transient
from repro.sweep.spec import canonical_json


def snap(label="cell", wall_s=2.0, sim_s=4.0, events=1000, records=500,
         final=False):
    return TelemetrySnapshot(label=label, wall_s=wall_s, sim_s=sim_s,
                             events=events, records=records, final=final)


class TestSnapshot:
    def test_rates(self):
        s = snap()
        assert s.events_per_s == 500.0

    def test_zero_wall_rates_are_zero(self):
        s = snap(wall_s=0.0)
        assert s.events_per_s == 0.0

    def test_progress_line(self):
        line = progress_line(snap())
        assert line.startswith("[cell] running:")
        assert "done" in progress_line(snap(final=True))


class TestHeartbeatEmitter:
    def test_throttling_by_count_and_wall_clock(self):
        beats = []
        step = 0.6 * MIN_INTERVAL_S
        clock = iter(step * i for i in range(1000))
        emitter = HeartbeatEmitter(
            beats.append, "cell", clock=lambda: next(clock),
        )
        for i in range(10 * CHECK_EVERY):
            emitter.engine_hook(now=float(i), label="e")
        # The clock ticks once at init, then once per CHECK_EVERY events;
        # each check is 0.6 MIN_INTERVAL_S after the last, so every other
        # check beats.
        assert [b.events for b in beats] == [
            k * 2 * CHECK_EVERY for k in range(1, 6)
        ]
        assert all(not b.final for b in beats)

    def test_finish_is_terminal_and_idempotent(self):
        beats = []
        emitter = HeartbeatEmitter(beats.append, "cell")
        for _ in range(5):
            emitter.engine_hook(now=1.0, label="e")
        assert emitter.final is None
        emitter.finish(sim_s=7.5)
        emitter.finish(sim_s=9.9)
        assert len(beats) == 1
        assert emitter.final is beats[0]
        assert beats[0].final and beats[0].sim_s == 7.5
        assert beats[0].events == 5

    def test_records_fn_is_sampled_at_beat_time(self):
        beats = []
        emitter = HeartbeatEmitter(
            beats.append, "cell", records_fn=lambda: 42,
        )
        emitter.finish(sim_s=1.0)
        assert beats[0].records == 42


class TestTelemetryCollector:
    """:func:`telemetry_summary` folds a sweep's final snapshots."""

    def test_totals_fold_finals_only(self):
        info = telemetry_summary([
            snap(label="a", events=20, wall_s=2.0, final=True),
            snap(label="b", events=5, wall_s=1.0, records=3, final=True),
        ])
        assert info["cells_seen"] == 2
        assert info["cells_finished"] == 2
        assert info["total_events"] == 25
        assert info["total_records"] == 503
        assert info["slowest_cell"] == "a"
        assert info["aggregate_events_per_s"] == pytest.approx(25 / 3.0)

    def test_render_summary(self):
        text = render_telemetry([snap(label="steady/Dyn-Aff/seed0", final=True)])
        assert "cells: 1 seen, 1 finished" in text
        assert "slowest cell: steady/Dyn-Aff/seed0" in text

    def test_empty_summary(self):
        info = telemetry_summary([])
        assert info["cells_seen"] == 0
        assert info["slowest_cell"] is None
        assert info["aggregate_events_per_s"] == 0.0


class _Stream:
    """A stderr stand-in that records each write call (or fails it)."""

    def __init__(self, broken=False):
        self.broken = broken
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestProgressWriter:
    def test_first_failed_write_silences_the_rest(self, monkeypatch):
        stream = _Stream(broken=True)
        monkeypatch.setattr("sys.stderr", stream)
        writer = ProgressWriter()
        writer.write("one")
        writer.snapshot(snap())
        assert stream.writes == ["one\n"]
        assert writer.silenced

    def test_one_write_per_line(self, monkeypatch):
        """Workers share stderr: a line split over two writes could
        interleave with another worker's."""
        stream = _Stream()
        monkeypatch.setattr("sys.stderr", stream)
        writer = ProgressWriter()
        writer.write("[cell] done")
        writer.snapshot(snap())
        assert stream.writes == ["[cell] done\n", progress_line(snap()) + "\n"]


#: The four cells of :func:`_matrix`.
LABELS = {
    "steady/Dyn-Aff/seed0", "steady/Dyn-Aff/seed1",
    "steady/Equipartition/seed0", "steady/Equipartition/seed1",
}


def _matrix(progress=False, workers=None, on_commit=None):
    spec = SweepSpec(
        name="telemetry", kind="opensys", scenarios=("steady",),
        policies=(DYN_AFF.name, EQUIPARTITION.name), seeds=2,
        n_processors=4, lite=True,
    )
    return run_sweep(
        spec, workers=workers, progress=progress, on_commit=on_commit,
        shard_size=2,
    )


def _finals(sweep):
    """label -> the final snapshot each outcome's payload carries."""
    return {
        o.payload["telemetry"].label: o.payload["telemetry"]
        for o in sweep.outcomes
    }


def _payload_bytes(sweep):
    return [canonical_json(strip_transient(o.payload)) for o in sweep.outcomes]


class TestMatrixTelemetry:
    def test_observational_only(self, capfd):
        """Progress on or off, the payloads are bit-identical."""
        commits = []
        watched = _matrix(progress=True,
                          on_commit=lambda i, r: commits.append(i))
        assert capfd.readouterr().err.count("] done:") == 4
        baseline = _matrix()
        assert _payload_bytes(watched) == _payload_bytes(baseline)
        assert all("telemetry" not in o.payload for o in baseline.outcomes)
        assert commits == [0, 1]
        # 1 scenario x 2 policies x 2 seeds = 4 cells, each finished once
        finals = _finals(watched)
        assert set(finals) == LABELS
        assert all(s.final for s in finals.values())
        info = telemetry_summary(list(finals.values()))
        assert info["cells_seen"] == 4
        assert info["cells_finished"] == 4

    def test_parallel_matrix_delivers_all_finals(self, capfd):
        result = _matrix(progress=True, workers=2)
        assert capfd.readouterr().err.count("] done:") == 4
        assert _payload_bytes(result) == _payload_bytes(_matrix())
        finals = _finals(result)
        assert set(finals) == LABELS
        assert all(s.final for s in finals.values())

    def test_final_heartbeat_counts_the_stored_trace(self, tmp_path):
        """A ``store_traces`` cell reports its trace's record count; an
        untraced cell reports 0.  Neither final reaches the cache."""
        from repro.obs.store import iter_columnar
        from repro.sweep import ResultCache

        def spec(name, seed, store_traces):
            return SweepSpec(
                name=name, kind="opensys", scenarios=("steady",),
                policies=(DYN_AFF.name,), seeds=(seed,), n_processors=4,
                lite=True, store_traces=store_traces,
            )

        cache = ResultCache(str(tmp_path))
        sweep = run_sweep(
            [spec("traced", 0, True), spec("plain", 1, False)],
            cache=cache, progress=True,
        )
        traced = sweep.outcomes[0]
        n_records = sum(1 for _ in iter_columnar(cache.trace_path(traced.key)))
        assert n_records > 0
        finals = _finals(sweep)
        assert finals["steady/Dyn-Aff/seed0"].final
        assert finals["steady/Dyn-Aff/seed0"].records == n_records
        assert finals["steady/Dyn-Aff/seed1"].final
        assert finals["steady/Dyn-Aff/seed1"].records == 0
        assert telemetry_summary(list(finals.values()))["total_records"] == (
            n_records
        )
        for outcome in sweep.outcomes:
            assert "telemetry" not in cache.load(outcome.key, outcome.cell)

    def test_table1_cell_reports_a_final(self, tmp_path, capsys):
        """A Table 1 cell has no engine run to finish its emitter; the
        executor does, so the summary still counts it."""
        spec = tmp_path / "table1.json"
        spec.write_text(json.dumps(SweepSpec(
            name="t1", kind="table1", apps=("MVA",), quanta=(0.1,), scale=32,
        ).to_dict()), encoding="utf-8")
        assert main([
            "sweep", "run", str(spec), "--cache-dir", str(tmp_path / "cache"),
            "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "cells: 1 seen, 1 finished" in captured.out
        assert captured.err.count("[table1/MVA/q0.1/seed0] done:") == 1
