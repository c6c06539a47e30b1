"""Sweep executor: hits, recompute, invalidation, journal, worker counts.

Cells here are lite open-system scenarios — real simulations, small
enough (~tens of ms each) to run many times per test.
"""

import json
import os

import pytest

import repro.sweep.executor as executor
from repro.sweep import ResultCache, SweepSpec, cell_key
from repro.sweep.executor import run_sweep, sweep_clean, sweep_status
from repro.sweep.spec import canonical_json

FAKE_FP = "0" * 64


def _spec(**overrides):
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


def _bytes(result):
    """The sweep's payloads in canonical-JSON form, expansion order."""
    return [canonical_json(o.payload) for o in result.outcomes]


def _check_cold_then_warm(spec, tmp_path):
    """A rerun is all hits, and its payloads equal the cold run's both as
    canonical bytes and as Python objects (fresh payloads are JSON-plain)."""
    cache = ResultCache(str(tmp_path))
    first = run_sweep(spec, cache=cache)
    second = run_sweep(spec, cache=cache)
    n = len(spec.expand())
    assert first.n_computed == n and first.n_hits == 0
    assert second.n_computed == 0 and second.n_hits == n
    assert all(o.cached for o in second.outcomes)
    assert _bytes(first) == _bytes(second)
    assert first.payloads == second.payloads


class TestRunSweep:
    def test_no_cache_runs_everything(self):
        result = run_sweep(_spec())
        assert result.n_computed == 4 and result.n_hits == 0
        assert result.journal_path is None
        assert [o.cell for o in result.outcomes] == list(_spec().expand())
        for outcome in result.outcomes:
            assert outcome.payload["schema"] == "repro.sweep.result/1"
            assert outcome.payload["data"]["opensys"]["n_jobs"] > 0

    def test_second_run_is_all_hits_and_byte_identical(self, tmp_path):
        _check_cold_then_warm(_spec(), tmp_path)

    @pytest.mark.parametrize("spec", [
        SweepSpec(name="m", kind="mix", mixes=(1,),
                  policies=("Equipartition", "Dynamic"), seeds=(0, 1)),
        SweepSpec(name="q", kind="table1", apps=("MVA", "MATRIX"),
                  quanta=(0.025,), scale=64),
    ], ids=["mix", "table1"])
    def test_second_run_of_other_kinds_is_all_hits(self, tmp_path, spec):
        _check_cold_then_warm(spec, tmp_path)

    def test_entry_under_another_cells_key_is_recomputed(self, tmp_path):
        """A result.json copied over another cell's entry names the wrong
        cell: it is evicted and recomputed, never served."""
        spec = SweepSpec(name="m", kind="mix", mixes=(1,),
                         policies=("Equipartition", "Dynamic"))
        cache = ResultCache(str(tmp_path))
        cold = run_sweep(spec, cache=cache)
        source, target = (
            os.path.join(cache.cell_dir(o.key), "result.json")
            for o in cold.outcomes
        )
        with open(source, "rb") as src, open(target, "wb") as dst:
            dst.write(src.read())
        rerun = run_sweep(spec, cache=cache)
        assert rerun.n_hits == 1 and rerun.n_computed == 1
        assert _bytes(rerun) == _bytes(cold)
        assert run_sweep(spec, cache=cache).n_hits == 2  # re-cached

    def test_entry_without_data_dict_is_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = run_sweep(_spec(seeds=(0,)), cache=cache)
        path = os.path.join(cache.cell_dir(cold.outcomes[0].key), "result.json")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["data"] = ["not", "a", "dict"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        rerun = run_sweep(_spec(seeds=(0,)), cache=cache)
        assert rerun.n_hits == 1 and rerun.n_computed == 1
        assert _bytes(rerun) == _bytes(cold)

    def test_cached_run_matches_uncached_byte_for_byte(self, tmp_path):
        cached = run_sweep(_spec(), cache=ResultCache(str(tmp_path)))
        plain = run_sweep(_spec())
        assert _bytes(cached) == _bytes(plain)

    def test_workers_bit_identical_to_serial(self, tmp_path):
        serial = run_sweep(_spec(), cache=ResultCache(str(tmp_path / "a")))
        parallel = run_sweep(
            _spec(), cache=ResultCache(str(tmp_path / "b")),
            workers=2, shard_size=1,
        )
        assert parallel.n_computed == 4
        assert _bytes(serial) == _bytes(parallel)

    def test_force_recomputes_despite_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        forced = run_sweep(_spec(), cache=cache, force=True)
        assert forced.n_computed == 4 and forced.n_hits == 0

    def test_on_commit_fires_per_shard_in_order(self, tmp_path):
        seen = []
        run_sweep(
            _spec(), cache=ResultCache(str(tmp_path)), shard_size=1,
            on_commit=lambda index, payloads: seen.append((index, len(payloads))),
        )
        assert seen == [(0, 1), (1, 1), (2, 1), (3, 1)]

    def test_bad_shard_size(self, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            run_sweep(_spec(), cache=ResultCache(str(tmp_path)), shard_size=0)


class TestSpecUnion:
    """Several specs in one call: one fan-out over their distinct cells."""

    def test_shared_cells_run_once_in_first_seen_order(self, monkeypatch):
        a = _spec(name="a", seeds=(0,))
        b = _spec(name="b", policies=("Dyn-Aff", "Dynamic"), seeds=(0,))
        ran = []
        run_cell = executor.run_cell

        def counting(cell, **kwargs):
            ran.append(cell)
            return run_cell(cell, **kwargs)

        monkeypatch.setattr(executor, "run_cell", counting)
        result = run_sweep([a, b])
        expected = list(dict.fromkeys(a.expand() + b.expand()))
        assert len(expected) == 3  # Dyn-Aff/seed 0 is in both specs
        assert ran == [o.cell for o in result.outcomes] == expected
        assert result.n_computed == 3
        # Each spec's own cells, served from the union, match a run of
        # that spec alone.
        alone = run_sweep(b).payloads
        assert {c: result.payloads[c] for c in b.expand()} == alone

    def test_journal_and_traces_per_spec(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        traced = _spec(name="traced", seeds=(0,), store_traces=True)
        plain = _spec(name="plain", seeds=(1,))
        result = run_sweep([traced, plain], cache=cache)
        assert result.journal_path.endswith(
            os.path.join("sweeps", "traced+plain", "journal.jsonl")
        )
        has_trace = {
            o.cell.seed: os.path.exists(cache.trace_path(o.key))
            for o in result.outcomes
        }
        assert has_trace == {0: True, 1: False}


class TestInvalidation:
    def test_config_change_forces_recompute(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        changed = run_sweep(_spec(utilization=0.6), cache=cache)
        assert changed.n_computed == 4 and changed.n_hits == 0

    def test_untouched_cells_still_hit_after_axis_growth(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        grown = run_sweep(_spec(scenarios=("steady", "bursty")), cache=cache)
        assert grown.n_hits == 4 and grown.n_computed == 4
        cached_labels = {o.cell.label for o in grown.outcomes if o.cached}
        assert all(label.startswith("steady/") for label in cached_labels)

    def test_code_fingerprint_change_forces_recompute(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        baseline = run_sweep(_spec(), cache=cache)
        monkeypatch.setattr(executor, "code_fingerprint", lambda: FAKE_FP)
        refreshed = run_sweep(_spec(), cache=cache)
        assert refreshed.n_computed == 4 and refreshed.n_hits == 0
        assert _bytes(refreshed) == _bytes(baseline)
        # Entries under the old fingerprint still serve once it's back.
        monkeypatch.undo()
        again = run_sweep(_spec(), cache=cache)
        assert again.n_hits == 4

    def test_metricless_hit_cannot_serve_a_metrics_run(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        with_metrics = run_sweep(_spec(), cache=cache, collect_metrics=True)
        assert with_metrics.n_computed == 4  # upgraded in place
        assert all(o.payload["metrics"] for o in with_metrics.outcomes)
        # Now the cache holds metrics: both flavours of run are hits, and
        # a metric-less run is served a metric-less payload.
        hit = run_sweep(_spec(), cache=cache, collect_metrics=True)
        assert hit.n_hits == 4
        plain = run_sweep(_spec(), cache=cache)
        assert plain.n_hits == 4
        assert all("metrics" not in o.payload for o in plain.outcomes)


class TestJournal:
    def test_journal_records_the_run(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = run_sweep(_spec(), cache=cache, shard_size=2)
        with open(result.journal_path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert all(line["schema"] == "repro.sweep.journal/1" for line in lines)
        events = [line["event"] for line in lines]
        assert events == ["run_start", "cell_done", "cell_done",
                          "cell_done", "cell_done", "run_end"]
        start = lines[0]
        assert start["n_cells"] == 4 and start["n_pending"] == 4
        assert len(start["code_fingerprint"]) == 64
        done = [line for line in lines if line["event"] == "cell_done"]
        assert [d["label"] for d in done] == [
            c.label for c in _spec().expand()
        ]
        assert [d["shard"] for d in done] == [0, 0, 1, 1]

    def test_journal_appends_across_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        result = run_sweep(_spec(), cache=cache)
        with open(result.journal_path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        # Second run: everything cached, so run_start + run_end only.
        assert [line["event"] for line in lines[-2:]] == ["run_start", "run_end"]
        assert lines[-2]["n_cached"] == 4 and lines[-2]["n_pending"] == 0
        assert lines[-1]["n_computed"] == 0 and lines[-1]["n_hits"] == 4


class TestStatusAndClean:
    def test_status_counts_cache_occupancy(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        before = sweep_status(_spec(), cache)
        assert before.n_cells == 4 and before.n_cached == 0
        assert before.n_pending == 4 and before.journal_path is None
        run_sweep(_spec(), cache=cache)
        after = sweep_status(_spec(), cache)
        assert after.n_cached == 4 and after.n_pending == 0
        assert after.journal_path is not None

    def test_partial_occupancy(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        cells = _spec().expand()
        assert cache.evict(cell_key(cells[0]))
        status = sweep_status(_spec(), cache)
        assert status.n_cached == 3 and status.n_pending == 1
        resumed = run_sweep(_spec(), cache=cache)
        assert resumed.n_computed == 1 and resumed.n_hits == 3

    def test_status_counts_only_entries_a_run_would_serve(self, tmp_path):
        """An entry copied over another cell's is pending, not cached:
        status evicts it, and the next run computes exactly that cell."""
        cache = ResultCache(str(tmp_path))
        cold = run_sweep(_spec(), cache=cache)
        source, target = (
            os.path.join(cache.cell_dir(o.key), "result.json")
            for o in cold.outcomes[:2]
        )
        with open(source, "rb") as src, open(target, "wb") as dst:
            dst.write(src.read())
        status = sweep_status(_spec(), cache)
        assert status.n_cached == 3 and status.n_pending == 1
        assert not os.path.exists(target)
        rerun = run_sweep(_spec(), cache=cache)
        assert rerun.n_hits == 3 and rerun.n_computed == 1
        assert _bytes(rerun) == _bytes(cold)

    def test_clean_evicts_only_this_spec(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_sweep(_spec(), cache=cache)
        other = _spec(name="other", scenarios=("bursty",))
        run_sweep(other, cache=cache)
        assert sweep_clean(_spec(), cache) == 4
        assert sweep_status(_spec(), cache).n_cached == 0
        assert sweep_status(other, cache).n_cached == 4
        assert sweep_clean(_spec(), cache) == 0  # idempotent


class TestSwfCells:
    """An SWF replay is a sweep cell keyed by the trace's content."""

    SAMPLE = os.path.join(os.path.dirname(__file__), "..", "data", "sample.swf")

    def _swf_spec(self, path):
        return SweepSpec(
            name="swf", kind="swf", swf=path, time_scale=2.0,
            policies=("Dyn-Aff",), seeds=(0, 1), n_processors=8,
        )

    def test_cell_matches_direct_replay(self):
        from repro.core.policies import DYN_AFF
        from repro.sweep.cells import opensys_result_from_dict
        from repro.workloads.opensys import SwfScenario, run_scenario

        sweep = run_sweep(self._swf_spec(self.SAMPLE))
        scenario = SwfScenario.from_file(self.SAMPLE, time_scale=2.0)
        for outcome in sweep.outcomes:
            seed = outcome.cell.config["seed"]
            direct = run_scenario(scenario, DYN_AFF, seed=seed, n_processors=8)
            assert opensys_result_from_dict(
                outcome.payload["data"]["opensys"]
            ) == direct

    def test_edited_trace_refused_under_stale_key(self, tmp_path):
        from repro.sweep.cells import run_cell

        trace = tmp_path / "edited.swf"
        trace.write_bytes(open(self.SAMPLE, "rb").read())
        (cell, _) = self._swf_spec(str(trace)).expand()
        trace.write_bytes(trace.read_bytes().replace(b"4.0", b"4.5", 1))
        with pytest.raises(ValueError, match=r"edited\.swf: SWF trace changed"):
            run_cell(cell)


class TestWorkerLoss:
    def test_lost_worker_names_its_cells_and_rerun_resumes(
        self, tmp_path, dying_worker
    ):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(executor.WorkerLostError) as excinfo:
            run_sweep(_spec(), cache=cache, workers=2, shard_size=2)
        assert str(excinfo.value) == (
            "a worker process died before shard 1 of 2 came back "
            "(steady/Equipartition/seed0, steady/Equipartition/seed1); "
            f"a rerun resumes from the cache in {tmp_path}"
        )
        landed = [
            cell.label for cell in _spec().expand()
            if cache.load(cell_key(cell), cell) is not None
        ]
        committed = len(landed)
        assert committed < 4
        # Every cell that landed is journaled, then the lost shard.
        with open(executor._journal_paths(cache, "t")[1], encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [line["event"] for line in lines] == (
            ["run_start"] + ["cell_done"] * committed + ["run_abort"]
        )
        assert [line["label"] for line in lines[1:-1]] == landed
        assert all(line["shard"] == 1 for line in lines[1:-1])
        assert lines[-1] == {
            "schema": "repro.sweep.journal/1",
            "event": "run_abort",
            "spec": "t",
            "shard": 0,
            "labels": ["steady/Equipartition/seed0", "steady/Equipartition/seed1"],
        }

        dying_worker.undo()
        resumed = run_sweep(_spec(), cache=cache, workers=2, shard_size=2)
        assert (resumed.n_hits, resumed.n_computed) == (committed, 4 - committed)
        assert not resumed.outcomes[0].cached
        assert _bytes(resumed) == _bytes(run_sweep(_spec()))

    def test_without_cache_the_message_says_so(self, dying_worker):
        with pytest.raises(executor.WorkerLostError,
                           match="nothing is cached, a rerun starts over"):
            run_sweep(_spec(), workers=2, shard_size=1)
