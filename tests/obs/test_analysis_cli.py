"""The analysis CLI surface: ``repro analyze``, ``repro diff``, ``--profile``.

Also the truncation refusal: truncated, mid-record or ill-framed
artifacts are refused with a clear error naming the file, at both the
reader (``stream_trace``) and the CLI, which exits non-zero.
"""

import hashlib
import json
import os

import pytest

from repro.cli import ANALYSIS_MARKER, PROFILE_MARKER, main
from repro.obs.analysis import DIFF_SCHEMA, INTERVALS_SCHEMA
from repro.obs.store import TraceFormatError
from repro.reporting.obs_export import ATTRIBUTION_SCHEMA, stream_trace


def _jsonl(lines):
    return "".join(line + "\n" for line in lines)


#: (how to damage the written trace's lines, what the error must say);
#: ``None`` writes no file at all.
ILL_FRAMED = [
    pytest.param(None, "cannot read trace", id="missing-file"),
    pytest.param(lambda lines: "", "is empty", id="empty"),
    pytest.param(
        lambda lines: _jsonl(lines[1:]),
        "does not start with a run_config", id="first-not-run-config",
    ),
    pytest.param(
        lambda lines: _jsonl(lines[:-1]),
        "does not end with a run_end", id="missing-run-end",
    ),
    pytest.param(
        lambda lines: _jsonl(lines[:-1] + [lines[0], lines[-1]]),
        "second run_config", id="second-run-config",
    ),
    pytest.param(
        lambda lines: _jsonl(lines + [lines[1]]),
        "premature run_end", id="record-after-run-end",
    ),
    pytest.param(
        lambda lines: _jsonl(lines).rstrip("\n"),
        "truncated", id="no-final-newline",
    ),
    pytest.param(
        lambda lines: _jsonl(lines[:2] + ['{"kind": not-json}'] + lines[2:]),
        "line 3 is not valid JSON", id="non-json-line",
    ),
]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "dynaff.jsonl"
    assert main(["trace", "--mix", "1", "--policy", "Dyn-Aff",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def equi_trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "equi.jsonl"
    assert main(["trace", "--mix", "1", "--policy", "Equipartition",
                 "--out", str(path)]) == 0
    return path


class TestAnalyzeCommand:
    def test_analyze_prints_attribution_and_conservation(self, trace_path, capsys):
        assert main(["analyze", str(trace_path)]) == 0
        stdout = capsys.readouterr().out
        assert "time attribution" in stdout
        assert "per-job decomposition" in stdout
        assert "conservation: exact" in stdout
        assert "interval series" in stdout

    def test_analyze_timeline_flag(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--timeline",
                     "--timeline-width", "60"]) == 0
        stdout = capsys.readouterr().out
        assert "cpu timeline" in stdout
        assert "legend:" in stdout
        # One row per processor, each exactly 60 columns wide.
        rows = [line for line in stdout.splitlines()
                if line.startswith("cpu ") and line.endswith("|")]
        assert len(rows) == 16
        for row in rows:
            assert len(row.split("|")[1]) == 60

    def test_analyze_writes_schema_tagged_outputs(self, trace_path, tmp_path, capsys):
        json_out = tmp_path / "attr.json"
        csv_out = tmp_path / "attr.csv"
        ivals_json = tmp_path / "intervals.json"
        ivals_csv = tmp_path / "intervals.csv"
        assert main([
            "analyze", str(trace_path),
            "--json", str(json_out), "--csv", str(csv_out),
            "--intervals-json", str(ivals_json),
            "--intervals-csv", str(ivals_csv),
        ]) == 0
        capsys.readouterr()
        attribution = json.loads(json_out.read_text(encoding="utf-8"))
        assert attribution["schema"] == ATTRIBUTION_SCHEMA
        assert attribution["policy"] == "Dyn-Aff"
        intervals = json.loads(ivals_json.read_text(encoding="utf-8"))
        assert intervals["schema"] == INTERVALS_SCHEMA
        assert csv_out.read_text(encoding="utf-8").startswith(
            "view,entity,bucket,seconds"
        )
        assert ivals_csv.read_text(encoding="utf-8").startswith("index,start,end")

    def test_analyze_custom_window(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--window", "0.5"]) == 0
        assert "window=0.5s" in capsys.readouterr().out


class TestTruncationRefusal:
    """Satellite (a): corrupt artifacts fail loudly, never analyze."""

    def test_truncated_file_exits_nonzero_with_clear_error(
        self, trace_path, tmp_path, capsys
    ):
        text = trace_path.read_text(encoding="utf-8")
        bad = tmp_path / "truncated.jsonl"
        bad.write_text(text[:-30], encoding="utf-8")  # cut mid-record
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", str(bad)])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "truncated" in err
        assert str(bad) in err

    def test_missing_run_end_exits_nonzero(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "no-end.jsonl"
        bad.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", str(bad)])
        assert exc_info.value.code == 1
        assert "run_end" in capsys.readouterr().err

    def test_non_object_line_exits_nonzero_naming_the_line(
        self, trace_path, tmp_path, capsys
    ):
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "list-line.jsonl"
        bad.write_text(_jsonl(lines[:1] + ["[1]"] + lines[1:]), encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", str(bad)])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: trace line 2:")

    def test_diff_refuses_corrupt_inputs_too(self, trace_path, tmp_path, capsys):
        bad = tmp_path / "garbage.jsonl"
        bad.write_text('{"kind": "dispatch", "time": not-json}\n', encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(["diff", str(trace_path), str(bad)])
        assert exc_info.value.code == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", ILL_FRAMED)
    def test_stream_trace_refuses(self, trace_path, tmp_path, damage, message):
        bad = tmp_path / "bad.jsonl"
        if damage is not None:
            lines = trace_path.read_text(encoding="utf-8").splitlines()
            bad.write_text(damage(lines), encoding="utf-8")
        with pytest.raises(TraceFormatError, match=message) as exc_info:
            list(stream_trace(str(bad)))
        assert str(bad) in str(exc_info.value)


class TestDiffCommand:
    def test_self_diff_reports_identical(self, trace_path, capsys):
        assert main(["diff", str(trace_path), str(trace_path)]) == 0
        stdout = capsys.readouterr().out
        assert "identical: True" in stdout
        assert "record-for-record identical" in stdout

    def test_policy_diff_reports_divergence_and_buckets(
        self, equi_trace_path, trace_path, tmp_path, capsys
    ):
        json_out = tmp_path / "diff.json"
        assert main([
            "diff", str(equi_trace_path), str(trace_path),
            "--label-a", "Equi", "--label-b", "Dyn-Aff",
            "--json", str(json_out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "identical: False" in stdout
        assert "mean response-time delta" in stdout
        assert "machine totals" in stdout
        assert "first divergent record" in stdout
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["schema"] == DIFF_SCHEMA
        assert payload["label_a"] == "Equi"
        assert payload["first_divergence"] is not None


#: sha256 of each export file in :class:`TestExportGoldens`.
EXPORT_DIGESTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "export_digests.json"
)


@pytest.fixture(scope="module")
def mix5_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("mix5")
    paths = {}
    for policy in ("Dyn-Aff", "Equipartition"):
        paths[policy] = root / f"{policy}.jsonl"
        assert main(["trace", "--mix", "5", "--policy", policy,
                     "--out", str(paths[policy])]) == 0
    return paths


class TestExportGoldens:
    """The bytes ``analyze --json/--intervals-json`` and ``diff --json``
    write for the seed-0 mix 5 traces under Dyn-Aff and Equipartition."""

    @pytest.fixture(scope="class")
    def digests(self):
        with open(EXPORT_DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("policy", ["Dyn-Aff", "Equipartition"])
    def test_analyze_exports(self, policy, mix5_traces, digests, tmp_path, capsys):
        attribution = tmp_path / "attr.json"
        intervals = tmp_path / "intervals.json"
        assert main([
            "analyze", str(mix5_traces[policy]), "--window", "5",
            "--json", str(attribution), "--intervals-json", str(intervals),
        ]) == 0
        capsys.readouterr()
        assert self._sha256(attribution) == digests[f"analyze_{policy}.json"]
        assert (self._sha256(intervals)
                == digests[f"analyze_{policy}.intervals.json"])

    def test_diff_export(self, mix5_traces, digests, tmp_path, capsys):
        out = tmp_path / "diff.json"
        assert main([
            "diff", str(mix5_traces["Equipartition"]),
            str(mix5_traces["Dyn-Aff"]),
            "--label-a", "Equi", "--label-b", "Dyn-Aff", "--json", str(out),
        ]) == 0
        capsys.readouterr()
        assert self._sha256(out) == digests["diff_Equipartition_Dyn-Aff.json"]


class TestProfileFlag:
    def test_table1_profile_prints_module_table(self, capsys):
        assert main(["table1", "--scale", "16", "--profile"]) == 0
        stdout = capsys.readouterr().out
        assert PROFILE_MARKER in stdout
        assert "simulator self-profile" in stdout
        assert " machine.cache " in stdout
        assert " measure.penalty " in stdout

    def test_fig6_analyze_prints_attribution(self, capsys):
        assert main(["fig6", "--replications", "1", "--analyze",
                     "--profile"]) == 0
        stdout = capsys.readouterr().out
        assert ANALYSIS_MARKER in stdout
        assert "conservation: exact" in stdout
        assert PROFILE_MARKER in stdout
        assert " engine.simulator " in stdout
