"""Sweep specs: seed validation, axis validation, expansion, loading."""

import hashlib
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

from repro.sweep.spec import (
    OPENSYS_SCENARIOS,
    TABLE1_APPS,
    TABLE1_QUANTA_S,
    SweepCell,
    SweepSpec,
    load_spec,
    normalize_seeds,
    parse_seeds_arg,
    spec_from_dict,
)


class TestNormalizeSeeds:
    def test_count_expands_from_base(self):
        assert normalize_seeds(3) == (0, 1, 2)
        assert normalize_seeds(2, base_seed=7) == (7, 8)

    def test_explicit_list_passes_through(self):
        assert normalize_seeds([5, 1, 9]) == (5, 1, 9)
        assert normalize_seeds((4,)) == (4,)

    def test_explicit_list_ignores_base_seed(self):
        assert normalize_seeds([2, 3], base_seed=100) == (2, 3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_count_rejected(self, bad):
        with pytest.raises(ValueError, match="at least one seed"):
            normalize_seeds(bad)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            normalize_seeds([])

    def test_bool_is_not_a_count(self):
        with pytest.raises(ValueError, match="count or a list"):
            normalize_seeds(True)

    @pytest.mark.parametrize("bad", [[1, 2.5], [1, "2"], [1, None], [1, True]])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            normalize_seeds(bad)

    def test_duplicates_rejected_and_named(self):
        with pytest.raises(ValueError, match=r"duplicate seeds \[1\]"):
            normalize_seeds([1, 1, 2])

    def test_all_duplicates_named_sorted(self):
        with pytest.raises(ValueError, match=r"duplicate seeds \[2, 7\]"):
            normalize_seeds([7, 2, 7, 2, 1])


class TestParseSeedsArg:
    def test_plain_number_is_a_count(self):
        assert parse_seeds_arg("3") == 3

    def test_comma_list_is_explicit(self):
        assert parse_seeds_arg("1,2,5") == (1, 2, 5)

    def test_trailing_comma_forces_single_element_list(self):
        assert parse_seeds_arg("5,") == (5,)

    def test_whitespace_tolerated(self):
        assert parse_seeds_arg(" 1 , 2 ") == (1, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1,y"])
    def test_garbage_raises(self, bad):
        with pytest.raises(ValueError):
            parse_seeds_arg(bad)


def _opensys_spec(**overrides):
    kwargs = dict(
        name="t",
        kind="opensys",
        scenarios=("steady",),
        policies=("Equipartition", "Dyn-Aff"),
        seeds=(0, 1),
        n_processors=4,
        lite=True,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


SAMPLE_SWF = os.path.join(
    os.path.dirname(__file__), "..", "data", "sample.swf"
)


def _swf_spec():
    return SweepSpec(
        name="t", kind="swf", swf=SAMPLE_SWF, time_scale=4.0,
        work_scale=2.0, max_jobs=5, policies=("Dyn-Aff",), seeds=(0, 1),
        n_processors=8,
    )


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            SweepSpec(name="t", kind="fig9")

    def test_needs_name(self):
        with pytest.raises(ValueError, match="needs a name"):
            SweepSpec(name="", kind="mix", mixes=(1,), policies=("Dyn-Aff",))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            _opensys_spec(seeds=(1, 1, 2))

    def test_seed_count_expands(self):
        assert _opensys_spec(seeds=3).seeds == (0, 1, 2)

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate entries in policies"):
            _opensys_spec(policies=("Dyn-Aff", "Dyn-Aff"))
        with pytest.raises(ValueError, match="duplicate entries in scenarios"):
            _opensys_spec(scenarios=("steady", "steady"))

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'Roulette'"):
            _opensys_spec(policies=("Roulette",))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            _opensys_spec(scenarios=("quiet",))

    def test_unknown_mix(self):
        with pytest.raises(ValueError, match="unknown mix"):
            SweepSpec(name="t", kind="mix", mixes=(99,), policies=("Dyn-Aff",))

    def test_unknown_app(self):
        with pytest.raises(ValueError, match="unknown application"):
            SweepSpec(name="t", kind="table1", apps=("SORT",))

    def test_utilization_bounds(self):
        with pytest.raises(ValueError, match="utilization"):
            _opensys_spec(utilization=0.0)
        with pytest.raises(ValueError, match="utilization"):
            _opensys_spec(utilization=1.0)

    def test_backend_validated(self):
        with pytest.raises(ValueError, match="backend"):
            SweepSpec(name="t", kind="table1", backend="fortran")

    def test_policies_required_for_mix_and_opensys(self):
        with pytest.raises(ValueError, match="at least one policy"):
            SweepSpec(name="t", kind="mix", mixes=(1,))
        with pytest.raises(ValueError, match="at least one policy"):
            SweepSpec(name="t", kind="opensys", scenarios=("steady",))

    def test_swf_needs_path_and_positive_scales(self):
        with pytest.raises(ValueError, match="trace path"):
            SweepSpec(name="t", kind="swf", policies=("Dyn-Aff",))
        for field in ("time_scale", "work_scale"):
            for bad in (0, -1.0, float("inf")):
                with pytest.raises(ValueError, match=field):
                    SweepSpec(
                        name="t", kind="swf", swf="x.swf",
                        policies=("Dyn-Aff",), **{field: bad},
                    )
        with pytest.raises(ValueError, match="max_jobs"):
            SweepSpec(
                name="t", kind="swf", swf="x.swf", policies=("Dyn-Aff",),
                max_jobs=-1,
            )

    def test_table1_defaults_paper_axes(self):
        spec = SweepSpec(name="t", kind="table1")
        assert spec.apps == TABLE1_APPS
        assert spec.quanta == TABLE1_QUANTA_S

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_table1_rejects_non_finite_and_non_positive_quanta(self, bad):
        """Regression: nan and inf used to pass and die in the run loop."""
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            SweepSpec(name="t", kind="table1", quanta=(0.1, bad))


class TestExpansion:
    def test_opensys_order_is_scenario_policy_seed(self):
        spec = _opensys_spec(scenarios=("steady", "bursty"))
        labels = [cell.label for cell in spec.expand()]
        assert labels == [
            "steady/Equipartition/seed0",
            "steady/Equipartition/seed1",
            "steady/Dyn-Aff/seed0",
            "steady/Dyn-Aff/seed1",
            "bursty/Equipartition/seed0",
            "bursty/Equipartition/seed1",
            "bursty/Dyn-Aff/seed0",
            "bursty/Dyn-Aff/seed1",
        ]

    def test_expansion_is_deterministic(self):
        assert _opensys_spec().expand() == _opensys_spec().expand()

    def test_mix_cell_config(self):
        spec = SweepSpec(
            name="t", kind="mix", mixes=(1,), policies=("Dyn-Aff",),
            seeds=(3,), n_processors=8,
        )
        (cell,) = spec.expand()
        assert cell.config == {
            "mix": 1, "policy": "Dyn-Aff", "seed": 3, "n_processors": 8,
        }

    def test_backend_only_keys_table1_cells(self):
        # backend picks the cache/reference engines, which only table1
        # touches; keying mix/opensys cells on it would split the cache
        # for runs that cannot differ.
        mix = SweepSpec(
            name="t", kind="mix", mixes=(1,), policies=("Dyn-Aff",),
        ).expand()[0]
        osys = _opensys_spec().expand()[0]
        t1 = SweepSpec(name="t", kind="table1", backend="scalar").expand()[0]
        assert "backend" not in mix.config
        assert "backend" not in osys.config
        assert t1.config["backend"] == "scalar"

    def test_swf_cell_config_carries_trace_digest(self):
        spec = SweepSpec(
            name="t", kind="swf", swf=SAMPLE_SWF, time_scale=4, work_scale=2,
            max_jobs=5, policies=("Dyn-Aff",), seeds=(3,), n_processors=8,
        )
        (cell,) = spec.expand()
        with open(SAMPLE_SWF, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert cell.config == {
            "swf": SAMPLE_SWF, "sha256": digest, "time_scale": 4.0,
            "work_scale": 2.0, "max_jobs": 5, "policy": "Dyn-Aff",
            "seed": 3, "n_processors": 8,
        }
        assert cell.label == "swf:sample.swf/Dyn-Aff/seed3"

    def test_swf_digest_follows_file_content(self, tmp_path):
        trace = tmp_path / "t.swf"
        trace.write_bytes(open(SAMPLE_SWF, "rb").read())
        spec = SweepSpec(
            name="t", kind="swf", swf=str(trace), policies=("Dyn-Aff",),
        )
        before = spec.expand()
        trace.write_bytes(trace.read_bytes() + b"\n")
        after = spec.expand()
        assert before[0].config["sha256"] != after[0].config["sha256"]

    def test_table1_cells_carry_partners(self):
        spec = SweepSpec(name="t", kind="table1", apps=("MVA", "MATRIX"))
        for cell in spec.expand():
            assert cell.config["partners"] == ["MVA", "MATRIX"]

    def test_cells_are_hashable_orderable_picklable(self):
        cells = _opensys_spec().expand()
        assert len(set(cells)) == len(cells)
        assert sorted(cells)  # order=True
        assert pickle.loads(pickle.dumps(cells[0])) == cells[0]

    def test_make_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            SweepCell.make("fig9", {})


def test_opensys_scenario_names_pin_the_builtin_set():
    """spec.OPENSYS_SCENARIOS is hardcoded (leaf-module constraint);
    this pins it to the actual built-in scenario registry."""
    from repro.workloads.opensys import built_in_scenarios

    scenarios = built_in_scenarios(lite=True, n_processors=4)
    assert tuple(scenarios) == OPENSYS_SCENARIOS


class TestSpecDocuments:
    def test_roundtrip_through_dict(self):
        spec = _opensys_spec()
        assert spec_from_dict(spec.to_dict()) == spec
        t1 = SweepSpec(name="q", kind="table1", scale=8, backend="numpy")
        assert spec_from_dict(t1.to_dict()) == t1

    def test_unknown_field_rejected_naming_source(self):
        data = _opensys_spec().to_dict()
        data["scenario"] = "steady"  # typo for "scenarios"
        with pytest.raises(ValueError, match=r"my.json: unknown spec field"):
            spec_from_dict(data, source="my.json")

    def test_unknown_schema_rejected(self):
        data = _opensys_spec().to_dict()
        data["schema"] = "repro.sweep.spec/99"
        with pytest.raises(ValueError, match="unknown spec schema"):
            spec_from_dict(data)

    def test_axis_must_be_a_list(self):
        data = _opensys_spec().to_dict()
        data["policies"] = "Dyn-Aff"
        with pytest.raises(ValueError, match="policies must be a list"):
            spec_from_dict(data)

    def test_validation_errors_name_the_source(self):
        data = _opensys_spec().to_dict()
        data["seeds"] = [1, 1]
        with pytest.raises(ValueError, match="spec.json: duplicate seeds"):
            spec_from_dict(data, source="spec.json")

    @pytest.mark.parametrize("field, bad", [
        ("n_processors", 4.5),
        ("n_processors", True),
        ("n_processors", "4"),
        ("lite", "no"),
        ("lite", 0),
        ("store_traces", "false"),
        ("utilization", "0.5"),
        ("utilization", True),
        ("backend", 1),
    ])
    def test_mistyped_scalar_rejected_naming_source_and_field(self, field, bad):
        data = _opensys_spec().to_dict()
        data[field] = bad
        with pytest.raises(ValueError, match=rf"my.json: {field} must be"):
            spec_from_dict(data, source="my.json")

    @pytest.mark.parametrize("field, bad", [
        ("scale", 2.5),
        ("scale", False),
    ])
    def test_mistyped_table1_scalar_rejected(self, field, bad):
        data = SweepSpec(name="q", kind="table1").to_dict()
        data[field] = bad
        with pytest.raises(ValueError, match=rf"my.json: {field} must be"):
            spec_from_dict(data, source="my.json")

    @pytest.mark.parametrize("field, bad", [
        ("max_jobs", 1.5),
        ("max_jobs", True),
        ("time_scale", "4"),
        ("work_scale", None),
        ("swf", 7),
    ])
    def test_mistyped_swf_scalar_rejected(self, field, bad):
        data = _swf_spec().to_dict()
        data[field] = bad
        with pytest.raises(ValueError, match=rf"my.json: {field} must be"):
            spec_from_dict(data, source="my.json")

    def test_swf_roundtrip_through_dict(self):
        spec = _swf_spec()
        assert spec_from_dict(spec.to_dict()) == spec

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="table/object"):
            spec_from_dict(["not", "a", "spec"])


class TestLoadSpec:
    def test_json_roundtrip(self, tmp_path):
        spec = _opensys_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert load_spec(str(path)) == spec

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read sweep spec"):
            load_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spec(str(path))

    @pytest.mark.parametrize("name", ["spec.json", "spec.toml"])
    def test_non_utf8_names_path(self, tmp_path, name):
        path = tmp_path / name
        if name.endswith(".toml"):
            pytest.importorskip("tomllib")
        path.write_bytes(b"\xff{}")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_spec(str(path))

    def test_toml_gated_or_loaded(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'schema = "repro.sweep.spec/1"\n'
            'name = "t"\n'
            'kind = "opensys"\n'
            'scenarios = ["steady"]\n'
            'policies = ["Dyn-Aff"]\n'
            "seeds = [0]\n"
            "lite = true\n",
            encoding="utf-8",
        )
        if sys.version_info >= (3, 11):
            spec = load_spec(str(path))
            assert spec.kind == "opensys" and spec.lite
        else:
            with pytest.raises(ValueError, match="TOML specs need Python 3.11"):
                load_spec(str(path))

    def test_invalid_toml(self, tmp_path):
        if sys.version_info < (3, 11):
            pytest.skip("tomllib needs Python 3.11+")
        path = tmp_path / "spec.toml"
        path.write_text("= broken", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid TOML"):
            load_spec(str(path))


_LAZY_PROBE = """
import sys
import repro.sweep

def loaded():
    return [m in sys.modules for m in ("repro.sweep.cells", "repro.sweep.executor")]

print(loaded())
repro.sweep.run_cell
print(loaded())
repro.sweep.run_sweep
print(loaded())
"""


def test_package_import_defers_cells_and_executor():
    """``import repro.sweep`` loads neither the cell runner nor the
    executor; each loads on first use of a name it defines."""
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.splitlines() == [
        "[False, False]",
        "[True, False]",
        "[True, True]",
    ]
