"""Export formats: JSONL round trip, golden files, sorting, termination."""

import json
import pathlib

import pytest

from repro.obs.store import iter_jsonl_records, write_jsonl
from repro.reporting.obs_export import snapshot_to_json, snapshots_to_csv
from tests.obs.golden_run import golden_run

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _jsonl_text(records, directory) -> str:
    """The JSONL trace of ``records``, as written to a file."""
    path = directory / "written.jsonl"
    write_jsonl(str(path), records)
    return path.read_text(encoding="utf-8")


class TestJsonlTrace:
    def test_round_trip_preserves_every_record(self, tmp_path):
        records, _ = golden_run()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(str(path), records) == len(records)
        assert list(iter_jsonl_records(str(path))) == list(records)

    def test_lines_are_key_sorted(self, tmp_path):
        records, _ = golden_run()
        for line in _jsonl_text(records, tmp_path).splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_newline_terminated(self, tmp_path):
        records, _ = golden_run()
        assert _jsonl_text(records, tmp_path).endswith("\n")
        assert _jsonl_text([], tmp_path) == ""

    def test_blank_lines_skipped_bad_json_rejected(self, tmp_path):
        records, _ = golden_run()
        path = tmp_path / "trace.jsonl"
        path.write_text(_jsonl_text(records, tmp_path) + "\n", encoding="utf-8")
        assert len(list(iter_jsonl_records(str(path)))) == len(records)
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            list(iter_jsonl_records(str(path)))


class TestSnapshotExports:
    def test_json_key_sorted_and_terminated(self):
        _, snapshot = golden_run()
        text = snapshot_to_json(snapshot)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(json.dumps(snapshot, sort_keys=True))
        names = list(json.loads(text)["counters"])
        assert names == sorted(names)


def _snapshot(counters=(), gauges=(), histograms=()):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    for name, values in histograms:
        for value in values:
            registry.histogram(name).observe(value)
    return registry.snapshot()


class TestSnapshotsToCsv:
    """Regression: merged snapshots with disjoint keys share one header.

    The old per-snapshot export sorted each snapshot's own keys, so two
    cells touching different metrics (failures cells have
    ``cpu/failures``; steady cells don't) produced rows whose columns
    did not line up.  ``snapshots_to_csv`` must emit the union header
    and blank-fill the gaps.
    """

    def test_disjoint_key_sets_align_under_union_header(self):
        a = _snapshot(counters=[("cpu/failures", 3.0), ("jobs/arrived", 8.0)])
        b = _snapshot(counters=[("jobs/arrived", 9.0)],
                      gauges=[("run/makespan_s", 4.5)])
        text = snapshots_to_csv([a, b], labels=["failures", "steady"])
        lines = text.splitlines()
        assert lines[0] == (
            "label,counter:cpu/failures,counter:jobs/arrived,"
            "gauge:run/makespan_s"
        )
        assert lines[1] == "failures,3.0,8.0,"
        assert lines[2] == "steady,,9.0,4.5"
        # every row has exactly the header's column count
        width = lines[0].count(",")
        assert all(line.count(",") == width for line in lines)

    def test_histograms_flatten_to_stable_fields(self):
        a = _snapshot(histograms=[("jobs/response_s", (1.0, 2.0))])
        text = snapshots_to_csv([a])
        header = text.splitlines()[0].split(",")
        assert header == [
            "label",
            "histogram:jobs/response_s:count",
            "histogram:jobs/response_s:max",
            "histogram:jobs/response_s:mean",
            "histogram:jobs/response_s:min",
            "histogram:jobs/response_s:sum",
        ]

    def test_default_labels_are_indices(self):
        text = snapshots_to_csv([_snapshot(), _snapshot()])
        rows = text.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1"]

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            snapshots_to_csv([_snapshot()], labels=["a", "b"])

    def test_empty_input_is_header_only(self):
        assert snapshots_to_csv([]) == "label\n"


class TestGoldenFiles:
    """Byte-for-byte stability of the exports on the canonical tiny run.

    If a change intentionally alters trace content or export format,
    regenerate with ``PYTHONPATH=src python tests/obs/golden_run.py`` and
    review the diff.
    """

    def test_trace_jsonl_matches_golden(self, tmp_path):
        records, _ = golden_run()
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), records)
        assert path.read_bytes() == (GOLDEN / "trace.jsonl").read_bytes()

    def test_metrics_json_matches_golden(self):
        _, snapshot = golden_run()
        assert snapshot_to_json(snapshot) == (GOLDEN / "metrics.json").read_text(
            encoding="utf-8"
        )

    def test_golden_trace_is_diff_friendly(self):
        """One record per line, every line a flat JSON object."""
        for line in (GOLDEN / "trace.jsonl").read_text().splitlines():
            payload = json.loads(line)
            assert isinstance(payload, dict) and "kind" in payload
