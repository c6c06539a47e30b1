"""Command line interface."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro.cli import EXIT_BROKEN_PIPE, TELEMETRY_MARKER, build_parser, main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SAMPLE_SWF = os.path.join(DATA_DIR, "sample.swf")


def _data(name):
    with open(os.path.join(DATA_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def options_snapshot(parser=None):
    """Every (sub)command's options as plain data: option strings, dest,
    default, choices and ``type`` name, sorted per command, so the
    snapshot pins which flags exist but not their declaration order.

    Regenerate ``tests/data/cli_options.json`` with
    ``PYTHONPATH=src:. python -c "from tests.test_cli import options_snapshot;
    import json; print(json.dumps(options_snapshot(), indent=1))"``.
    """
    if parser is None:
        parser = build_parser()
    snapshot = {}

    def walk(prefix, p):
        options = []
        for action in p._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(f"{prefix} {name}".strip(), child)
                continue
            options.append({
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": (
                    list(action.choices) if action.choices is not None else None
                ),
                "type": getattr(action.type, "__name__", None),
            })
        options.sort(key=lambda o: (o["option_strings"], o["dest"]))
        snapshot[prefix or "repro"] = options

    walk("", parser)
    return dict(sorted(snapshot.items()))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_apps_defaults(self):
        args = build_parser().parse_args(["apps"])
        assert args.processors == 16
        assert args.seed == 0

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "apps"])
        assert args.seed == 7

    def test_fig5_mix_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--mix", "9"])

    def test_table1_scale(self):
        args = build_parser().parse_args(["table1", "--scale", "32"])
        assert args.scale == 32

    def test_table1_full_fidelity_scale_accepted(self):
        args = build_parser().parse_args(["table1", "--scale", "1"])
        assert args.scale == 1

    @pytest.mark.parametrize("bad", ["0", "-4"])
    def test_scale_must_be_positive(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--scale", bad])


    @pytest.mark.parametrize("argv", [
        ["fig5", "--mix", "1", "-r", "0"],
        ["fig6", "--mix", "1", "-r", "-1"],
        ["future", "--mix", "1", "-r", "x"],
        ["table4", "-r", "0"],
        ["all", "-r", "0"],
        ["fig5", "--mix", "1", "--workers", "0"],
        ["fig6", "--mix", "1", "--workers", "0"],
        ["future", "--workers", "-2"],
        ["opensys", "--workers", "0"],
        ["all", "--workers", "0"],
        ["sweep", "run", "spec.json", "--workers", "0"],
        ["opensys", "--processors", "0"],
        ["opensys", "--swf", SAMPLE_SWF, "--time-scale", "0"],
        ["opensys", "--swf", SAMPLE_SWF, "--time-scale", "-1.5"],
        ["opensys", "--swf", SAMPLE_SWF, "--time-scale", "nan"],
        ["opensys", "--swf", SAMPLE_SWF, "--work-scale", "0"],
        ["opensys", "--swf", SAMPLE_SWF, "--work-scale", "inf"],
        ["opensys", "--swf", SAMPLE_SWF, "--max-jobs", "-1"],
        ["opensys", "--swf", SAMPLE_SWF, "--max-jobs", "1.5"],
    ])
    def test_bad_counts_fail_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        assert "must be" in capsys.readouterr().err

    def test_options_snapshot(self):
        # No command gains or loses a flag, a default, a choice or a type.
        assert options_snapshot() == json.loads(_data("cli_options.json"))

    def test_count_arguments_parse(self):
        args = build_parser().parse_args([
            "opensys", "--swf", SAMPLE_SWF, "--time-scale", "4",
            "--work-scale", "0.5", "--max-jobs", "0", "--workers", "2",
        ])
        assert (args.time_scale, args.work_scale) == (4.0, 0.5)
        assert (args.max_jobs, args.workers) == (0, 2)
        assert build_parser().parse_args(["fig5", "-r", "1"]).replications == 1


class TestCommands:
    def test_apps_output(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "MVA" in out and "MATRIX" in out and "GRAVITY" in out
        assert "average processor demand" in out

    def test_fig5_single_mix(self, capsys):
        assert main(["fig5", "--mix", "1", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "Workload #1" in out
        assert "Dyn-Aff" in out

    def test_table4_output(self, capsys):
        assert main(["table4", "-r", "1"]) == 0
        out = capsys.readouterr().out
        assert "#1" in out and "#4" in out
        assert "Dyn-Aff-NoPri" in out

    def test_future_single_mix(self, capsys):
        assert main(["future", "--mix", "1", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "processor-speed x cache-size" in out

    def test_table1_fast_scale(self, capsys):
        assert main(["table1", "--scale", "128"]) == 0
        out = capsys.readouterr().out
        assert "Q = 25 msec." in out
        assert "P^NA" in out


class TestGoldens:
    """Byte-for-byte outputs pinned in ``tests/data``.

    Any change to how these commands fan out, cache, or assemble their
    replications must leave stdout and the exported JSON untouched.
    """

    def test_future_stdout(self, capsys):
        assert main(["future", "--mix", "1", "-r", "2"]) == 0
        assert capsys.readouterr().out == _data("future_mix1_r2.stdout")

    def test_fig5_mix5_metrics_stdout(self, capsys):
        assert main(["fig5", "--mix", "5", "-r", "1", "--metrics"]) == 0
        assert capsys.readouterr().out == _data("fig5_mix5_r1_metrics.stdout")

    def test_fig6_mix6_stdout(self, capsys):
        assert main(["fig6", "--mix", "6", "-r", "1"]) == 0
        assert capsys.readouterr().out == _data("fig6_mix6_r1.stdout")

    def test_gantt_mix5_stdout(self, capsys):
        assert main(["gantt"]) == 0
        assert capsys.readouterr().out == _data("gantt_mix5.stdout")

    def test_gantt_mix6_seed7_stdout(self, capsys):
        # Three jobs: pins the legend's letter order.
        assert main(["--seed", "7", "gantt", "--mix", "6"]) == 0
        assert capsys.readouterr().out == _data("gantt_mix6_seed7.stdout")

    def test_section8_mix5_stdout(self, capsys):
        assert main(["section8"]) == 0
        assert capsys.readouterr().out == _data("section8_mix5.stdout")

    def test_section8_mix6_seed7_stdout(self, capsys):
        assert main(["--seed", "7", "section8", "--mix", "6"]) == 0
        assert capsys.readouterr().out == _data("section8_mix6_seed7.stdout")

    def test_table1_numpy_scale32_stdout(self, capsys):
        # The vectorized generator and cache engines drive Table 1 here;
        # the `all` golden runs it on the default engine, which is scalar
        # where numpy does not import.
        pytest.importorskip("numpy")
        assert main(["table1", "--backend", "numpy", "--scale", "32"]) == 0
        assert capsys.readouterr().out == _data("table1_numpy_scale32.stdout")

    def test_all_mix2_stdout(self, capsys, monkeypatch):
        # Mix 2's jobs are not in alphabetical order (MVA before MATRIX).
        import sys

        import repro.sweep.executor as executor
        from repro.measure.runner import run_mix
        from repro.workloads.opensys.scenario import run_scenario

        cells = []
        inside = [False]
        outside = []  # run_mix/run_scenario calls made outside run_cell

        def counting_run_cell(cell, **kwargs):
            cells.append(cell)
            inside[0] = True
            try:
                return run_cell(cell, **kwargs)
            finally:
                inside[0] = False

        def guard(fn):
            def guarded(*args, **kwargs):
                if not inside[0]:
                    outside.append(fn.__name__)
                return fn(*args, **kwargs)
            return guarded

        run_cell = executor.run_cell
        monkeypatch.setattr(executor, "run_cell", counting_run_cell)
        for fn in (run_mix, run_scenario):
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, guard(fn))
        assert main(["all", "--mix", "2", "-r", "1"]) == 0
        assert capsys.readouterr().out == _data("all_mix2_r1.stdout")
        # One run per distinct cell: 9 Table 1 cells, fig5's 4 on mix 2
        # (which future and section8 reuse), fig6's Dyn-Aff-NoPri,
        # table4's 4, and section8's two time-sharing cells.
        assert len(cells) == len(set(cells)) == 9 + 4 + 1 + 4 + 2
        assert outside == []

    def test_opensys_swf_stdout_and_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "opensys", "--swf", SAMPLE_SWF, "--seeds", "2", "--metrics",
            "--json", "swf_matrix.json",
        ]) == 0
        out = capsys.readouterr().out
        assert out == _data("opensys_swf_seeds2_metrics.stdout")
        written = (tmp_path / "swf_matrix.json").read_text(encoding="utf-8")
        assert written == _data("opensys_swf_seeds2_matrix.json")

    #: sha256 of the JSONL trace each ``opensys --trace`` golden writes.
    TRACE_SHA256 = {
        "opensys_failures_trace":
            "a51713603ab308114acf6a32c22c116ca61875cb98d5f6c68d2aa2a8a2a7d1a1",
        "opensys_swf_trace":
            "66c7d79e734a5d8ebb41d77674ac20a87f8c617338b5c5bc846784a90ff71e45",
    }

    @pytest.mark.parametrize("name, argv", [
        ("opensys_failures_trace",
         ["opensys", "--lite", "--scenario", "failures", "--policy", "Dyn-Aff",
          "--seeds", "2", "--processors", "8"]),
        ("opensys_swf_trace", ["opensys", "--swf", SAMPLE_SWF]),
    ])
    def test_opensys_trace_stdout_and_bytes(
        self, name, argv, tmp_path, monkeypatch, capsys
    ):
        import hashlib

        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--trace", "T.jsonl"]) == 0
        assert capsys.readouterr().out == _data(f"{name}.stdout")
        written = (tmp_path / "T.jsonl").read_bytes()
        assert hashlib.sha256(written).hexdigest() == self.TRACE_SHA256[name]


def _result_files(root):
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(root)
        for name in names
        if name == "result.json"
    )


class TestSwfCache:
    """``opensys --swf --cache-dir``: SWF replays are cached sweep cells."""

    def _run(self, capsys, trace, cache):
        assert main([
            "opensys", "--swf", str(trace), "--seeds", "2",
            "--cache-dir", str(cache),
        ]) == 0
        return capsys.readouterr().out

    def test_cold_warm_and_edited_trace(self, tmp_path, capsys):
        trace = tmp_path / "sample.swf"
        trace.write_bytes(open(SAMPLE_SWF, "rb").read())
        cache = tmp_path / "cache"

        cold = self._run(capsys, trace, cache)
        computed = _result_files(cache)
        assert len(computed) == 10  # 5 policies x 2 seeds

        warm = self._run(capsys, trace, cache)
        assert warm == cold
        assert _result_files(cache) == computed

        # Same path, one byte changed: the content digest keys new cells.
        trace.write_bytes(trace.read_bytes().replace(b"4.0", b"4.5", 1))
        self._run(capsys, trace, cache)
        assert len(_result_files(cache)) == 20


class TestOpensysTrace:
    """``opensys --trace`` writes the trace a ``store_traces`` sweep caches
    for the same cell (first scenario and policy, base seed)."""

    @pytest.mark.parametrize("argv, spec_kwargs", [
        (["--lite", "--scenario", "failures", "--processors", "8"],
         dict(kind="opensys", scenarios=("failures",), lite=True,
              n_processors=8)),
        (["--swf", SAMPLE_SWF], dict(kind="swf", swf=SAMPLE_SWF)),
    ])
    def test_trace_matches_cached_sweep_trace(
        self, argv, spec_kwargs, tmp_path, capsys
    ):
        from repro.reporting.obs_export import stream_trace
        from repro.sweep import ResultCache, SweepSpec, run_sweep

        written = str(tmp_path / "T.jsonl")
        assert main(["opensys", "--policy", "Dyn-Aff", "--seeds", "1"]
                    + argv + ["--trace", written]) == 0
        capsys.readouterr()
        spec = SweepSpec(name="traced", policies=("Dyn-Aff",), seeds=(0,),
                         store_traces=True, **spec_kwargs)
        cache = ResultCache(str(tmp_path / "cache"))
        (outcome,) = run_sweep(spec, cache=cache).outcomes
        cached = list(stream_trace(cache.trace_path(outcome.key)))
        assert cached
        assert list(stream_trace(written)) == cached


class TestMixCache:
    """Mix cells served from the cache print exactly what a fresh run
    prints, including the job order of a non-alphabetical mix."""

    def test_fig6_mix2_uncached_cold_warm_half_warm(self, tmp_path, capsys):
        import shutil

        argv = ["fig6", "--mix", "2", "-r", "1"]
        cache = tmp_path / "cache"
        assert main(argv) == 0
        uncached = capsys.readouterr().out
        assert uncached.index("MVA") < uncached.index("MATRIX")

        runs = {}
        for label in ("cold", "warm", "half-warm"):
            if label == "half-warm":
                stored = _result_files(cache)
                assert len(stored) == 2  # Equipartition and Dyn-Aff-NoPri
                shutil.rmtree(os.path.dirname(stored[0]))
            assert main(argv + ["--cache-dir", str(cache)]) == 0
            runs[label] = capsys.readouterr().out
        assert runs == dict.fromkeys(runs, uncached)
        assert len(_result_files(cache)) == 2


@pytest.fixture(scope="module")
def mix_grid():
    """Every Table 2 mix under all five policies at seed 0, with metrics:
    the superset of the cells fig5, fig6, table4 and future read at -r 1,
    fresh and after a store/load round trip through a ResultCache."""
    import tempfile

    from repro.core.policies import POLICIES
    from repro.sweep import ResultCache, SweepSpec, cell_key, run_sweep

    spec = SweepSpec(
        name="grid", kind="mix", mixes=(1, 2, 3, 4, 5, 6),
        policies=tuple(POLICIES), seeds=(0,),
    )
    fresh = run_sweep(spec, collect_metrics=True).payloads
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        served = {}
        for cell, payload in fresh.items():
            key = cell_key(cell)
            cache.store(cell, key, payload)
            served[cell] = cache.load(key, cell)
    return fresh, served


class TestFigureRenderersFromCache:
    """Each figure renderer prints the same from cache-served payloads as
    from fresh ones, for every mix (2, 3, 5 and 6 list their jobs in a
    non-alphabetical order)."""

    @pytest.mark.parametrize("argv", [
        ["fig5", "-r", "1", "--metrics", "--csv", "{csv}"],
        ["fig6", "-r", "1"],
        ["table4", "-r", "1"],
        ["future", "-r", "1"],
    ])
    def test_same_output(self, mix_grid, argv, tmp_path, capsys):
        from repro.cli import FIGURES

        csv = tmp_path / "fig5.csv"
        args = build_parser().parse_args([a.format(csv=csv) for a in argv])
        figure = FIGURES[args.command]
        spec = figure.spec(args)
        outputs = []
        for payloads in mix_grid:
            figure.render(args, spec, payloads)
            written = csv.read_text(encoding="utf-8") if csv.exists() else ""
            outputs.append((capsys.readouterr().out, written))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]


class TestClosedPipes:
    """A reader that hangs up early never turns into a failed run or a
    traceback.  Each command runs in a subprocess whose pipe is closed
    before it writes anything, so every write to it fails."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def _popen(self, argv, **streams):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env, **streams
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_stderr_keeps_progress_runs_whole(
        self, workers, tmp_path, capsys
    ):
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            proc = self._popen(
                ["opensys", "--lite", "--progress", "--workers", str(workers)],
                stdout=fh, stderr=subprocess.PIPE,
            )
            proc.stderr.close()
            assert proc.wait(timeout=300) == 0
        table, summary = out.read_text(encoding="utf-8").split(
            TELEMETRY_MARKER + "\n"
        )
        assert summary.startswith("cells: 60 seen, 60 finished\n")
        assert main(["opensys", "--lite"]) == 0
        assert table == capsys.readouterr().out

    def test_closed_stdout_exits_quietly(self, tmp_path):
        spec = os.path.join(
            os.path.dirname(os.path.dirname(__file__)),
            "examples", "sweep_lite.json",
        )
        proc = self._popen(
            ["sweep", "run", spec, "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == EXIT_BROKEN_PIPE
        assert "Traceback" not in err
