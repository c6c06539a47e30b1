"""Run telemetry: throttled heartbeats, collection, and non-interference.

The contract under test: emitters beat on the engine hook with bounded
per-event cost (wall clock consulted only every ``check_every`` events,
beats spaced ``min_interval_s`` apart), every cell always lands exactly
one terminal snapshot, the collector folds totals from finals only, and
— the load-bearing property — a matrix run with telemetry attached
commits results identical to one without.
"""

import pytest

from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.obs.telemetry import (
    HeartbeatEmitter,
    TelemetryChannel,
    TelemetryCollector,
    TelemetrySnapshot,
    progress_line,
)
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import matrix_comparison


def snap(label="cell", seq=0, wall_s=2.0, sim_s=4.0, events=1000,
         records=500, final=False):
    return TelemetrySnapshot(label=label, seq=seq, wall_s=wall_s,
                             sim_s=sim_s, events=events, records=records,
                             final=final)


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
        clock = iter(float(i) for i in range(1000))
        emitter = HeartbeatEmitter(
            beats.append, "cell", min_interval_s=2.0, check_every=10,
            clock=lambda: next(clock),
        )
        for i in range(100):
            emitter.engine_hook(now=float(i), label="e")
        # clock ticks once at init then once per modulo hit (every 10
        # events); with min_interval_s=2 every other check beats.
        assert 0 < len(beats) < 10
        assert all(not b.final for b in beats)
        assert [b.seq for b in beats] == list(range(len(beats)))

    def test_finish_is_terminal_and_idempotent(self):
        beats = []
        emitter = HeartbeatEmitter(beats.append, "cell", check_every=10**9)
        for _ in range(5):
            emitter.engine_hook(now=1.0, label="e")
        emitter.finish(sim_s=7.5)
        emitter.finish(sim_s=9.9)
        assert len(beats) == 1
        assert beats[0].final and beats[0].sim_s == 7.5
        assert beats[0].events == 5

    def test_records_fn_is_sampled_at_beat_time(self):
        beats = []
        emitter = HeartbeatEmitter(
            beats.append, "cell", records_fn=lambda: 42,
        )
        emitter.finish(sim_s=1.0)
        assert beats[0].records == 42

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            HeartbeatEmitter(lambda s: None, "x", min_interval_s=-1)
        with pytest.raises(ValueError):
            HeartbeatEmitter(lambda s: None, "x", check_every=0)


class TestTelemetryCollector:
    def test_totals_fold_finals_only(self):
        collector = TelemetryCollector()
        collector(snap(label="a", events=10, wall_s=1.0))
        collector(snap(label="a", seq=1, events=20, wall_s=2.0, final=True))
        collector(snap(label="b", events=5, wall_s=1.0, records=3, final=True))
        info = collector.summary()
        assert info["cells_seen"] == 2
        assert info["cells_finished"] == 2
        assert info["total_events"] == 25
        assert info["total_records"] == 503
        assert info["slowest_cell"] == "a"
        assert info["aggregate_events_per_s"] == pytest.approx(25 / 3.0)

    def test_render_summary(self):
        collector = TelemetryCollector()
        collector(snap(label="steady/Dyn-Aff/seed0", final=True))
        text = collector.render_summary()
        assert "cells: 1 seen, 1 finished" in text
        assert "slowest cell: steady/Dyn-Aff/seed0" in text

    def test_empty_summary(self):
        info = TelemetryCollector().summary()
        assert info["cells_seen"] == 0
        assert info["slowest_cell"] is None
        assert info["aggregate_events_per_s"] == 0.0


class TestTelemetryChannel:
    def test_serial_sink_is_direct(self):
        seen = []
        callback = seen.append
        with TelemetryChannel(workers=1, on_snapshot=callback) as channel:
            assert channel.sink is callback
            channel.sink(snap())
        assert len(seen) == 1

    def test_parallel_channel_drains_before_close_returns(self):
        seen = []
        with TelemetryChannel(workers=2, on_snapshot=seen.append) as channel:
            for i in range(20):
                channel.sink(snap(seq=i))
        assert len(seen) == 20
        assert [s.seq for s in seen] == list(range(20))


def _matrix(telemetry=None, workers=None, on_commit=None):
    spec = SweepSpec(
        name="telemetry", kind="opensys", scenarios=("steady",),
        policies=(DYN_AFF.name, EQUIPARTITION.name), seeds=2,
        n_processors=4, lite=True,
    )
    sweep = run_sweep(
        spec, workers=workers, telemetry=telemetry, on_commit=on_commit,
        shard_size=2,
    )
    return matrix_comparison(spec, sweep.payloads)


class TestMatrixTelemetry:
    def test_observational_only(self):
        """Heartbeats attached or not, results are identical."""
        collector = TelemetryCollector()
        commits = []
        watched = _matrix(telemetry=collector,
                          on_commit=lambda i, r: commits.append(i))
        baseline = _matrix()
        assert set(watched.cells) == set(baseline.cells)
        for key in baseline.cells:
            assert watched.cells[key].mean_response == (
                baseline.cells[key].mean_response
            )
        assert commits == [0, 1]
        # 1 scenario x 2 policies x 2 seeds = 4 cells, each finished once
        info = collector.summary()
        assert info["cells_seen"] == 4
        assert info["cells_finished"] == 4
        assert set(collector.latest) == {
            "steady/Dyn-Aff/seed0", "steady/Dyn-Aff/seed1",
            "steady/Equipartition/seed0", "steady/Equipartition/seed1",
        }

    def test_parallel_matrix_delivers_all_finals(self):
        collector = TelemetryCollector()
        result = _matrix(telemetry=collector, workers=2)
        baseline = _matrix()
        for key in baseline.cells:
            assert result.cells[key].mean_response == (
                baseline.cells[key].mean_response
            )
        assert collector.summary()["cells_finished"] == 4

    def test_final_heartbeat_counts_the_stored_trace(self, tmp_path):
        """A ``store_traces`` cell reports its trace's record count; an
        untraced cell reports 0."""
        from repro.obs.store import iter_columnar
        from repro.sweep import ResultCache

        def spec(name, seed, store_traces):
            return SweepSpec(
                name=name, kind="opensys", scenarios=("steady",),
                policies=(DYN_AFF.name,), seeds=(seed,), n_processors=4,
                lite=True, store_traces=store_traces,
            )

        cache = ResultCache(str(tmp_path))
        collector = TelemetryCollector()
        sweep = run_sweep(
            [spec("traced", 0, True), spec("plain", 1, False)],
            cache=cache, telemetry=collector,
        )
        traced = sweep.outcomes[0]
        n_records = sum(1 for _ in iter_columnar(cache.trace_path(traced.key)))
        assert n_records > 0
        finals = collector.latest
        assert finals["steady/Dyn-Aff/seed0"].final
        assert finals["steady/Dyn-Aff/seed0"].records == n_records
        assert finals["steady/Dyn-Aff/seed1"].final
        assert finals["steady/Dyn-Aff/seed1"].records == 0
        assert collector.summary()["total_records"] == n_records
