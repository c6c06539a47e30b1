"""The cell profiler: cProfile statistics folded by module, merged, and
carried through the sweep."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

import repro
from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.obs.profiling import (
    EXTERNAL,
    PROFILE_SCHEMA,
    fold_stats,
    merge_profiles,
    module_of,
    validate_profile,
)
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison, run_cell
from repro.sweep.spec import mix_cell, table1_cell

PACKAGE = pathlib.Path(repro.__file__).parent


def _profiled_sweep(policies, workers=None):
    """Mix 1, two seeds, every cell profiled: (spec, sweep result)."""
    spec = SweepSpec(
        name="profiled", kind="mix", mixes=(1,),
        policies=tuple(p.name for p in policies), seeds=2,
    )
    return spec, run_sweep(spec, workers=workers, collect_profile=True)


def _entry(code, calls, self_s, recursive=0):
    """A stand-in for one ``cProfile.Profile.getstats()`` entry."""
    return types.SimpleNamespace(
        code=code, callcount=calls, reccallcount=recursive, inlinetime=self_s,
    )


def _code_in(path):
    return types.SimpleNamespace(co_filename=str(path))


def _row_calls(snapshot):
    return {name: row["calls"] for name, row in snapshot["modules"].items()}


class TestFolding:
    def test_module_of_names_rows_below_the_package(self):
        assert module_of(str(PACKAGE / "core" / "allocator.py")) == "core.allocator"
        assert module_of(str(PACKAGE / "obs" / "__init__.py")) == "obs"
        assert module_of(str(PACKAGE / "__init__.py")) == "repro"
        assert module_of(os.__file__) == EXTERNAL
        assert module_of("<built-in method builtins.len>") == EXTERNAL
        assert module_of("<frozen importlib._bootstrap>") == EXTERNAL

    def test_entries_fold_into_module_rows(self):
        queue = _code_in(PACKAGE / "engine" / "queue.py")
        snapshot = fold_stats(
            [
                _entry(queue, 10, 0.5),
                _entry(queue, 4, 0.25, recursive=3),
                _entry("<built-in method builtins.len>", 7, 0.125),
                _entry(_code_in(os.__file__), 1, 0.125),
            ],
            wall_s=1.0,
        )
        validate_profile(snapshot)
        assert snapshot == {
            "schema": PROFILE_SCHEMA,
            "wall_s": 1.0,
            "modules": {
                EXTERNAL: {"calls": 8, "self_s": 0.25},
                "engine.queue": {"calls": 11, "self_s": 0.75},
            },
        }


class TestSnapshotsAndMerging:
    def test_snapshot_validates(self):
        profile = run_cell(mix_cell(1, DYN_AFF.name, 0), collect_profile=True)["profile"]
        assert profile["schema"] == PROFILE_SCHEMA
        validate_profile(profile)

    def test_merge_adds_calls_and_times(self):
        a = fold_stats([_entry(_code_in(PACKAGE / "cli.py"), 1, 0.5)], 0.5)
        b = fold_stats([_entry("<built-in method builtins.len>", 2, 1.0)], 1.0)
        merged = merge_profiles([a, b, a])
        assert merged["wall_s"] == 2.0
        assert merged["modules"] == {
            EXTERNAL: {"calls": 2, "self_s": 1.0},
            "cli": {"calls": 2, "self_s": 1.0},
        }

    def test_validate_rejects_wrong_schema_and_missing_keys(self):
        """A span-profiler (``/1``) snapshot, then malformed ``/2`` ones."""
        with pytest.raises(ValueError, match="schema"):
            validate_profile({"schema": "repro.profile/1", "spans": {}})
        malformed = [
            ({"modules": {}}, "wall_s"),
            ({"wall_s": -1.0, "modules": {}}, "wall_s"),
            ({"wall_s": 1.0}, "modules"),
            ({"wall_s": 1.0, "modules": {"cli": 3}}, "not a mapping"),
            ({"wall_s": 1.0, "modules": {"cli": {"calls": 1}}}, "missing"),
            (
                {"wall_s": 1.0, "modules": {"cli": {"calls": -1, "self_s": 0.0}}},
                "negative",
            ),
        ]
        for snapshot, message in malformed:
            with pytest.raises(ValueError, match=message):
                validate_profile({"schema": PROFILE_SCHEMA, **snapshot})


class TestLiveWiring:
    """Profiled cells attribute their time to the modules that ran."""

    def test_run_mix_profiles_engine_and_policy_spans(self):
        """A mix cell's rows include the scheduling core and the engine."""
        profile = run_cell(mix_cell(1, DYN_AFF.name, 0), collect_profile=True)["profile"]
        for module in ("core.system", "core.allocator", "engine.simulator"):
            assert profile["modules"][module]["calls"] > 0

    def test_equipartition_profiles_rebalance(self):
        cell = mix_cell(1, EQUIPARTITION.name, 0)
        profile = run_cell(cell, collect_profile=True)["profile"]
        assert profile["modules"]["core.allocator"]["calls"] > 0

    def test_penalty_experiment_profiles_cache_and_regimes(self):
        """A Table 1 cell's rows include the penalty experiment and the
        machine modules it runs."""
        cell = table1_cell("MVA", 0.1, ["MVA"], 32, 0, "scalar")
        profile = run_cell(cell, collect_profile=True)["profile"]
        for module in ("measure.penalty", "machine.cache", "machine.processor",
                       "machine.batching", "machine.backends.scalar"):
            assert profile["modules"][module]["calls"] > 0

    def test_self_seconds_sum_to_the_profiled_time(self):
        profile = run_cell(mix_cell(1, DYN_AFF.name, 0), collect_profile=True)["profile"]
        total = sum(row["self_s"] for row in profile["modules"].values())
        assert profile["wall_s"] > 0
        assert total == pytest.approx(profile["wall_s"], rel=0.05, abs=0.002)

    def test_disabled_profiler_collects_no_spans(self):
        """An unprofiled cell carries no profile and the same data."""
        cell = mix_cell(1, DYN_AFF.name, 0)
        plain = run_cell(cell)
        profiled = run_cell(cell, collect_profile=True)
        assert "profile" not in plain
        assert plain["data"] == profiled["data"]

    def test_comparison_merges_per_replication_profiles(self):
        spec, sweep = _profiled_sweep([EQUIPARTITION, DYN_AFF])
        comparison = mix_comparison(spec, sweep.payloads, 1)
        assert set(comparison.profiles) == {"Equipartition", "Dyn-Aff"}
        for policy, merged in comparison.profiles.items():
            validate_profile(merged)
            runs = [p["profile"] for c, p in sweep.payloads.items()
                    if c.config["policy"] == policy]
            assert len(runs) == 2
            assert merged["wall_s"] == runs[0]["wall_s"] + runs[1]["wall_s"]
            for module, calls in _row_calls(merged).items():
                assert calls == sum(_row_calls(run).get(module, 0) for run in runs)

    def test_profiles_survive_the_process_pool(self):
        serial = _profiled_sweep([DYN_AFF], workers=1)
        parallel = _profiled_sweep([DYN_AFF], workers=2)
        # Wall-clock values differ; the per-module call counts must not.
        profiles = [mix_comparison(spec, sweep.payloads, 1).profiles["Dyn-Aff"]
                    for spec, sweep in (serial, parallel)]
        assert _row_calls(profiles[0]) == _row_calls(profiles[1])


def test_startup_imports_no_profiler():
    """The CLI and the sweep load cProfile only for a profiled cell."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, repro.cli, repro.sweep\n"
        "print(sorted({'cProfile', 'pstats', 'profile'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"
