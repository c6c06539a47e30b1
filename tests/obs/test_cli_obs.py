"""The observability CLI surface: ``repro trace`` and ``--metrics``."""

import json

import pytest

from repro.cli import METRICS_MARKER, main
from repro.obs.invariants import assert_trace_ok
from repro.obs.metrics import validate_snapshot
from repro.reporting.obs_export import stream_trace


def snapshots_from_stdout(text):
    """Parse every metrics snapshot a command printed after its tables."""
    chunks = text.split(METRICS_MARKER)[1:]
    snapshots = []
    for chunk in chunks:
        body = chunk.split("\n", 1)[1]
        decoder = json.JSONDecoder()
        snapshot, _ = decoder.raw_decode(body)
        snapshots.append(snapshot)
    return snapshots


class TestTraceCommand:
    def test_trace_writes_verified_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--mix", "1", "--policy", "Dyn-Aff",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "invariant violations: 0" in stdout
        assert "replay check: exact" in stdout
        records = list(stream_trace(str(out)))
        assert records, "trace file must not be empty"
        assert_trace_ok(records)  # the written artifact re-verifies cold

    def test_trace_metrics_flag_prints_valid_snapshot(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--mix", "1", "--out", str(out), "--metrics"]) == 0
        snapshots = snapshots_from_stdout(capsys.readouterr().out)
        assert len(snapshots) == 1
        validate_snapshot(snapshots[0])

    def test_trace_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["trace", "--policy", "NoSuchPolicy"])


class TestConvertCommand:
    def test_round_trip_is_byte_identical(self, tmp_path, capsys):
        jsonl, col, back = (tmp_path / n for n in ("t.jsonl", "t.rct", "b.jsonl"))
        assert main(["trace", "--mix", "1", "--out", str(jsonl)]) == 0
        assert main(["convert", str(jsonl), str(col)]) == 0
        assert main(["convert", str(col), str(back), "--to", "jsonl"]) == 0
        assert back.read_bytes() == jsonl.read_bytes()
        assert f"-> {back} (jsonl)" in capsys.readouterr().out

    def test_list_kind_exits_nonzero_naming_the_line(self, tmp_path, capsys):
        src, dst = tmp_path / "t.jsonl", tmp_path / "t.rct"
        src.write_text('{"kind": ["x"], "time": 0.0}\n', encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(["convert", str(src), str(dst)])
        assert exc_info.value.code == 1
        assert capsys.readouterr().err.startswith(f"error: {src}: trace line 1:")
        assert not dst.exists()


class TestMetricsFlags:
    def test_table1_scale16_emits_schema_valid_snapshot(self, capsys):
        """ISSUE regression: ``repro table1 --scale 16 --metrics``."""
        assert main(["table1", "--scale", "16", "--metrics"]) == 0
        stdout = capsys.readouterr().out
        assert "P^NA" in stdout or "MATRIX" in stdout  # the table itself
        snapshots = snapshots_from_stdout(stdout)
        assert len(snapshots) == 1
        validate_snapshot(snapshots[0])
        counters = snapshots[0]["counters"]
        assert counters["penalty/switches"] > 0
        assert counters["penalty/cache_misses"] > 0

    def test_fig6_metrics_prints_one_snapshot_per_policy(self, capsys):
        assert main(["fig6", "--mix", "1", "-r", "2", "--metrics"]) == 0
        snapshots = snapshots_from_stdout(capsys.readouterr().out)
        assert len(snapshots) == 2  # Equipartition + Dyn-Aff-NoPri
        for snapshot in snapshots:
            validate_snapshot(snapshot)

    def test_table4_metrics_snapshot(self, capsys):
        assert main(["table4", "-r", "1", "--metrics"]) == 0
        snapshots = snapshots_from_stdout(capsys.readouterr().out)
        assert len(snapshots) == 1
        validate_snapshot(snapshots[0])

    def test_no_metrics_flag_prints_no_marker(self, capsys):
        assert main(["table4", "-r", "1"]) == 0
        assert METRICS_MARKER not in capsys.readouterr().out
