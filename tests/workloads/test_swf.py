"""SWF ingestion: golden parse, strict malformed-input errors, full replay.

The golden file pins the exact parse of the committed sample trace —
any change to field mapping, the allocated-to-requested fallback, or
normalization shows up as a diff against it.  Malformed inputs must be
*errors with a line number*, never silent skips: a trace that parses
differently than the archive intended corrupts every experiment built
on it.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.cli import main
from repro.core.policies import DYN_AFF
from repro.obs import Tracer
from repro.obs.invariants import check_trace
from repro.obs.replay import verify_replay
from repro.workloads.opensys import (
    SwfFormatError,
    SwfScenario,
    load_swf,
    parse_swf,
    run_scenario,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
SAMPLE = os.path.join(DATA_DIR, "sample.swf")
GOLDEN = os.path.join(DATA_DIR, "sample_swf_golden.json")


def _line(
    job_id=1,
    submit="0",
    run="4.0",
    allocated="2",
    requested="2",
    status="1",
):
    """One syntactically complete 18-field SWF line."""
    fields = [
        str(job_id), submit, "0", run, allocated, "1.0", "1024",
        requested, "8.0", "2048", status, "101", "10", "1", "1", "1",
        "-1", "-1",
    ]
    return "  ".join(fields)


class TestGolden:
    def test_sample_parses_to_golden(self):
        jobs = [dataclasses.asdict(job) for job in load_swf(SAMPLE)]
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert jobs == golden

    def test_allocated_fallback_to_requested(self):
        """Job 5 records -1 allocated processors; field 8 fills in."""
        jobs = {job.job_id: job for job in load_swf(SAMPLE)}
        assert jobs[5].n_procs == 4

    def test_comments_and_blanks_skipped(self):
        jobs = parse_swf("; comment\n\n" + _line() + "\n")
        assert len(jobs) == 1
        assert jobs[0].line_no == 3


class TestMalformed:
    def test_truncated_line(self):
        text = _line() + "\n  1 2 3 4 5\n"
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(text, source="bad.swf")
        assert exc.value.line_no == 2
        assert "bad.swf:2:" in str(exc.value)
        assert "truncated" in str(exc.value)

    def test_error_survives_pickling(self):
        """A pool worker hands the error to the parent by pickle."""
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(_line() + "\n  1 2 3 4 5\n", source="bad.swf")
        copy = pickle.loads(pickle.dumps(exc.value))
        assert type(copy) is SwfFormatError
        assert (copy.source, copy.line_no) == ("bad.swf", 2)
        assert str(copy) == str(exc.value)

    @pytest.mark.parametrize("load", [load_swf, SwfScenario.from_file])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, load):
        path = tmp_path / "bin.swf"
        path.write_bytes(
            ("; header\n" + _line() + "\n").encode("utf-8")
            + _line(job_id=2, submit="5").encode("utf-8") + b" \xff\n"
        )
        with pytest.raises(SwfFormatError) as exc:
            load(str(path))
        assert exc.value.line_no == 3
        assert str(exc.value).startswith(f"{path}:3: byte 0xff")

    def test_negative_runtime(self):
        text = _line(job_id=1) + "\n" + _line(job_id=2, submit="5", run="-1")
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(text, source="bad.swf")
        assert exc.value.line_no == 2
        assert "negative runtime" in str(exc.value)

    def test_negative_submit(self):
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(_line(submit="-3"))
        assert exc.value.line_no == 1
        assert "negative submit" in str(exc.value)

    def test_out_of_order_submits(self):
        text = (
            _line(job_id=1, submit="10")
            + "\n; interlude\n"
            + _line(job_id=2, submit="4")
        )
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(text, source="bad.swf")
        assert exc.value.line_no == 3
        assert "non-decreasing" in str(exc.value)

    def test_non_numeric_field(self):
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(_line(run="fast"))
        assert exc.value.line_no == 1
        assert "non-numeric" in str(exc.value)

    @pytest.mark.parametrize("field", ["run", "submit", "allocated", "status"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_field(self, field, value):
        later = {"job_id": 2, "submit": "5", field: value}
        text = _line(job_id=1) + "\n" + _line(**later)
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(text, source="bad.swf")
        assert exc.value.line_no == 2
        assert "bad.swf:2:" in str(exc.value)
        assert "non-finite field" in str(exc.value)

    def test_non_finite_job_id(self):
        with pytest.raises(SwfFormatError, match="non-finite field 1"):
            parse_swf(_line(job_id="inf"))

    def test_duplicate_job_id(self):
        text = _line(job_id=7) + "\n" + _line(job_id=7, submit="5")
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(text)
        assert exc.value.line_no == 2
        assert "duplicate job id 7" in str(exc.value)

    def test_no_usable_processor_count(self):
        with pytest.raises(SwfFormatError) as exc:
            parse_swf(_line(allocated="-1", requested="0"))
        assert exc.value.line_no == 1
        assert "no usable processor count" in str(exc.value)


class TestScenario:
    def test_instantiation_normalizes_and_scales(self):
        scenario = SwfScenario.from_file(SAMPLE, time_scale=4.0, work_scale=2.0)
        instance = scenario.instantiate(seed=0, n_processors=8)
        assert instance.arrival_times[0] == 0.0  # normalized to first submit
        assert instance.arrival_times == tuple(sorted(instance.arrival_times))
        assert len(instance.jobs) == 10
        # statuses 5 (job 6) and 0 (job 8) become mid-run cancellations
        cancelled = {instance.jobs[i].name for i, _ in instance.cancellations}
        assert cancelled == {"SWF-6", "SWF-8"}

    def test_max_jobs_truncates(self):
        scenario = SwfScenario.from_file(SAMPLE, max_jobs=3)
        instance = scenario.instantiate(seed=0, n_processors=8)
        assert [job.name for job in instance.jobs] == ["SWF-1", "SWF-2", "SWF-3"]

    def test_seed_does_not_change_the_replay(self):
        """A trace is data: every seed replays the identical workload."""
        scenario = SwfScenario.from_file(SAMPLE, time_scale=4.0, work_scale=2.0)
        a = scenario.instantiate(seed=0, n_processors=8)
        b = scenario.instantiate(seed=99, n_processors=8)
        assert a.arrival_times == b.arrival_times
        assert a.cancellations == b.cancellations

    def test_replay_end_to_end_through_oracle(self):
        scenario = SwfScenario.from_file(SAMPLE, time_scale=4.0, work_scale=2.0)
        tracer = Tracer()
        result = run_scenario(
            scenario, DYN_AFF, seed=0, n_processors=8, tracer=tracer
        )
        assert result.n_jobs == 10
        assert result.n_cancelled == 2
        assert result.n_completed == 8
        assert check_trace(tracer.records) == []
        assert verify_replay(tracer.records, result.system) == []


class TestCliErrors:
    """A malformed trace ends ``repro opensys --swf`` with one line."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("tail,message", [
        (b"  2 3 1 6.5 4\n", "truncated record: expected 18 fields, got 5"),
        (b"\xff\n", "byte 0xff is not UTF-8 text"),
    ], ids=["truncated", "undecodable"])
    def test_error_names_file_and_line(self, tmp_path, capsys, workers, tail, message):
        path = tmp_path / "bad.swf"
        path.write_bytes((_line() + "\n").encode("utf-8") + tail)
        with pytest.raises(SystemExit) as exc:
            main(["opensys", "--swf", str(path), "--seeds", "2",
                  "--workers", workers])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: {message}\n"
