"""Content-addressed result cache: keys, commit protocol, damage handling."""

import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.cache import (
    RESULT_SCHEMA,
    ResultCache,
    cell_key,
    code_fingerprint,
)
from repro.sweep.spec import SweepCell

FP = "f" * 64  # a fixed fingerprint so key tests never walk the source tree


def _cell(seed=0, **extra):
    config = {"scenario": "steady", "policy": "Dyn-Aff", "seed": seed}
    config.update(extra)
    return SweepCell.make("opensys", config)


def _payload(value=1.5, cell=None):
    cell = cell or _cell()
    return {"schema": RESULT_SCHEMA, "kind": cell.kind, "cell": cell.config,
            "data": {"makespan": value, "jobs": {"a": [1, 2]}}}


class TestCellKey:
    def test_shape_and_determinism(self):
        key = cell_key(_cell(), FP)
        assert re.fullmatch(r"[0-9a-f]{64}", key)
        assert cell_key(_cell(), FP) == key

    def test_config_change_changes_key(self):
        assert cell_key(_cell(seed=0), FP) != cell_key(_cell(seed=1), FP)
        assert cell_key(_cell(), FP) != cell_key(_cell(lite=True), FP)

    def test_kind_is_part_of_the_key(self):
        a = SweepCell(kind="mix", config_json=_cell().config_json)
        b = SweepCell(kind="opensys", config_json=_cell().config_json)
        assert cell_key(a, FP) != cell_key(b, FP)

    def test_fingerprint_is_part_of_the_key(self):
        assert cell_key(_cell(), FP) != cell_key(_cell(), "0" * 64)

    def test_default_fingerprint_is_the_source_tree_hash(self):
        assert cell_key(_cell()) == cell_key(_cell(), code_fingerprint())


class TestCodeFingerprint:
    def test_stable_and_well_formed(self):
        fp = code_fingerprint()
        assert re.fullmatch(r"[0-9a-f]{64}", fp)
        assert code_fingerprint() == fp


class TestStoreLoad:
    def test_miss_is_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).load("ab" * 32, _cell()) is None

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, _payload(), FP)
        assert cache.load(key, _cell()) == _payload()

    def test_floats_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        value = 0.1 + 0.2  # 0.30000000000000004 — repr round-trips exactly
        cache.store(_cell(), key, _payload(value), FP)
        assert cache.load(key, _cell())["data"]["makespan"] == value

    def test_store_refuses_unschemad_payload(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.store(_cell(), cell_key(_cell(), FP), {"data": {}}, FP)

    def test_provenance_written_alongside(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, _payload(), FP)
        with open(os.path.join(cache.cell_dir(key), "cell.json")) as fh:
            provenance = json.load(fh)
        assert provenance["key"] == key
        assert provenance["code_fingerprint"] == FP
        assert provenance["config"] == _cell().config

    def test_missing_result_file_is_a_miss(self, tmp_path):
        # cell.json without result.json == interrupted store == never ran.
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        os.makedirs(cache.cell_dir(key))
        with open(os.path.join(cache.cell_dir(key), "cell.json"), "w") as fh:
            fh.write("{}")
        assert cache.load(key, _cell()) is None


#: JSON values whose dicts carry keys in whatever order hypothesis drew.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=20,
)


class TestKeyOrder:
    """A hit hands back the payload's key order, not a sorted one: a
    mix's jobs are keyed by name in mix order, which reports print."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.dictionaries(st.text(max_size=6), _json_values, max_size=6))
    def test_store_load_preserves_key_order(self, data):
        payload = {**_payload(), "data": data}
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root)
            key = cell_key(_cell(), FP)
            cache.store(_cell(), key, payload, FP)
            assert json.dumps(cache.load(key, _cell())) == json.dumps(payload)

    def test_unsorted_jobs_survive(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        payload = {**_payload(), "data": {"jobs": {"MVA": 1.0, "MATRIX": 2.0}}}
        cache.store(_cell(), key, payload, FP)
        assert list(cache.load(key, _cell())["data"]["jobs"]) == ["MVA", "MATRIX"]


class TestDamage:
    @pytest.mark.parametrize("damage", ["", "{trunc", '"a string"', "[1,2]"])
    def test_damaged_entry_evicted_and_missed(self, tmp_path, damage):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, _payload(), FP)
        with open(os.path.join(cache.cell_dir(key), "result.json"), "w") as fh:
            fh.write(damage)
        assert cache.load(key, _cell()) is None
        assert not os.path.exists(cache.cell_dir(key))  # evicted

    def test_wrong_result_schema_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, _payload(), FP)
        path = os.path.join(cache.cell_dir(key), "result.json")
        with open(path, "w") as fh:
            json.dump({"schema": "something/else"}, fh)
        assert cache.load(key, _cell()) is None
        assert not os.path.exists(cache.cell_dir(key))

    @pytest.mark.parametrize("change", [
        pytest.param({"kind": "mix"}, id="kind"),
        pytest.param({"cell": _cell(seed=1).config}, id="cell"),
        pytest.param({"data": [1, 2]}, id="data"),
    ])
    def test_entry_for_another_cell_evicted(self, tmp_path, change):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, {**_payload(), **change}, FP)
        assert cache.load(key, _cell()) is None
        assert not os.path.exists(cache.cell_dir(key))

    def test_undecodable_entry_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, _payload(), FP)
        with open(os.path.join(cache.cell_dir(key), "result.json"), "wb") as fh:
            fh.write(b'{"schema": "\xff"}')
        assert cache.load(key, _cell()) is None
        assert not os.path.exists(cache.cell_dir(key))


class TestEvict:
    def test_evict_removes_and_prunes_fanout(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cell_key(_cell(), FP)
        cache.store(_cell(), key, _payload(), FP)
        assert cache.evict(key)
        assert not os.path.exists(cache.cell_dir(key))
        assert not os.path.exists(os.path.dirname(cache.cell_dir(key)))

    def test_evict_keeps_sibling_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key_a = cell_key(_cell(seed=0), FP)
        # Find a sibling sharing the two-char fanout prefix.
        seed, key_b = next(
            (s, k) for s, k in
            ((s, cell_key(_cell(seed=s), FP)) for s in range(1, 5000))
            if k[:2] == key_a[:2]
        )
        cache.store(_cell(seed=0), key_a, _payload(), FP)
        sibling = _payload(cell=_cell(seed=seed))
        cache.store(_cell(seed=seed), key_b, sibling, FP)
        assert cache.evict(key_a)
        assert cache.load(key_b, _cell(seed=seed)) == sibling

    def test_evict_missing_is_false(self, tmp_path):
        assert not ResultCache(str(tmp_path)).evict("ab" * 32)
