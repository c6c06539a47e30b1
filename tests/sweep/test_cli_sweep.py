"""CLI surface of the sweep layer: `repro sweep` and the --seeds axis."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.sweep import SweepSpec, normalize_seeds, run_sweep
from repro.sweep.cells import matrix_comparison

SAMPLE_SWF = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "sample.swf"
)


def _write_spec(tmp_path, **overrides):
    kwargs = dict(
        name="lite",
        kind="opensys",
        scenarios=("steady",),
        policies=("Equipartition", "Dyn-Aff"),
        seeds=(0,),
        n_processors=4,
        lite=True,
    )
    kwargs.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SweepSpec(**kwargs).to_dict()), encoding="utf-8")
    return str(path)


class TestSweepCommand:
    def test_run_then_rerun_hits_everything(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["sweep", "run", spec, "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "2 cells, 0 cache hits, 2 computed" in first
        assert "Dyn-Aff" in first  # the matrix table rendered

        assert main(["sweep", "run", spec, "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "2 cells, 2 cache hits, 0 computed" in second
        # Identical rendered report either way (modulo the hit counters).
        assert first.splitlines()[2:] == second.splitlines()[2:]

    def test_status_and_clean(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["sweep", "status", spec, "--cache-dir", cache]) == 0
        assert "2 cells, 0 cached, 2 pending" in capsys.readouterr().out

        main(["sweep", "run", spec, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["sweep", "status", spec, "--cache-dir", cache]) == 0
        assert "2 cells, 2 cached, 0 pending" in capsys.readouterr().out

        assert main(["sweep", "clean", spec, "--cache-dir", cache]) == 0
        assert "evicted 2 cached cell(s)" in capsys.readouterr().out
        assert main(["sweep", "status", spec, "--cache-dir", cache]) == 0
        assert "2 cells, 0 cached, 2 pending" in capsys.readouterr().out

    def test_bad_spec_is_a_diagnostic_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "x", "kind": "fig9"}),
                        encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "run", str(path), "--cache-dir",
                  str(tmp_path / "cache")])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "unknown sweep kind" in err

    def test_missing_spec_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "run", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 1
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_metrics_flag_renders_snapshot(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        assert main(["sweep", "run", spec, "--cache-dir",
                     str(tmp_path / "cache"), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "=== metrics ===" in out


class TestTimeSharingPolicies:
    """Section 8's time-sharing policies are ``mix``-only sweep policies."""

    def _run(self, tmp_path, document):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return main(
            ["sweep", "run", str(path), "--cache-dir", str(tmp_path / "cache")]
        )

    def _rejected(self, tmp_path, capsys, document, policy):
        with pytest.raises(SystemExit) as excinfo:
            self._run(tmp_path, dict(document, name="ts", policies=[policy]))
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "spec.json") in err
        assert f"policy {policy!r} is time sharing" in err

    def test_mix_sweep_runs_time_sharing(self, tmp_path, capsys):
        assert self._run(tmp_path, {
            "name": "ts", "kind": "mix", "mixes": [1],
            "policies": ["TimeSharing", "TimeSharing-Aff", "Dynamic"],
        }) == 0
        out = capsys.readouterr().out
        assert "3 cells, 0 cache hits, 3 computed" in out
        assert "  TimeSharing-Aff " in out

    def test_opensys_sweep_rejects_time_sharing(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, {
            "kind": "opensys", "scenarios": ["steady"], "lite": True,
        }, "TimeSharing-Aff")

    def test_swf_sweep_rejects_time_sharing(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, {"kind": "swf", "swf": SAMPLE_SWF},
                       "TimeSharing")


class TestSeedsAxis:
    def test_count_form_parses(self):
        args = build_parser().parse_args(["opensys", "--seeds", "3"])
        assert args.seeds == 3

    def test_list_form_parses(self):
        args = build_parser().parse_args(["opensys", "--seeds", "1,2,5"])
        assert args.seeds == (1, 2, 5)

    def test_duplicate_seed_list_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["opensys", "--seeds", "1,1,2"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "duplicate seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-2", "x", "1,y"])
    def test_invalid_seeds_rejected(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["opensys", "--seeds", bad])


def _steady_matrix(seeds):
    spec = SweepSpec(
        name="seeds", kind="opensys", scenarios=("steady",),
        policies=(EQUIPARTITION.name, DYN_AFF.name), seeds=seeds,
        n_processors=4, lite=True,
    )
    return matrix_comparison(spec, run_sweep(spec).payloads)


class TestSeedListAxis:
    def test_explicit_seed_list_matches_equivalent_count(self):
        by_count = _steady_matrix(normalize_seeds(2, base_seed=5))
        by_list = _steady_matrix([5, 6])
        assert by_count.seeds == by_list.seeds == (5, 6)
        assert by_count.results == by_list.results

    def test_noncontiguous_seed_list(self):
        result = _steady_matrix([3, 11])
        assert result.seeds == (3, 11)
        for per_seed in result.results.values():
            assert [r.seed for r in per_seed] == [3, 11]

    def test_duplicate_seed_list_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            _steady_matrix([1, 1])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            _steady_matrix(0)
