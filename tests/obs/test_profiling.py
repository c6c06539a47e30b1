"""The span profiler: fake-clock arithmetic, merging, and live wiring."""

import pytest

from repro.apps import APPLICATIONS
from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.measure.penalty import PenaltyExperiment
from repro.measure.runner import run_mix
from repro.obs.profiling import (
    PROFILE_SCHEMA,
    NullSpanProfiler,
    SpanProfiler,
    validate_profile,
)
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison


def _profiled_comparison(policies, workers=None):
    """Mix 1, two seeds, every cell profiled."""
    spec = SweepSpec(
        name="profiled", kind="mix", mixes=(1,),
        policies=tuple(p.name for p in policies), seeds=2,
    )
    sweep = run_sweep(spec, workers=workers, collect_profile=True)
    return mix_comparison(spec, sweep.payloads, 1)


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSpanArithmetic:
    def test_flat_span_inclusive_equals_exclusive(self):
        clock = FakeClock()
        prof = SpanProfiler(clock=clock)
        prof.push("stage")
        clock.advance(2.0)
        prof.pop()
        data = prof.snapshot()["spans"]["stage"]
        assert data == {
            "calls": 1, "inclusive_s": 2.0, "exclusive_s": 2.0, "max_s": 2.0,
        }

    def test_nested_child_time_is_subtracted_from_exclusive(self):
        clock = FakeClock()
        prof = SpanProfiler(clock=clock)
        prof.push("outer")
        clock.advance(1.0)
        prof.push("inner")
        clock.advance(3.0)
        prof.pop()
        clock.advance(0.5)
        prof.pop()
        spans = prof.snapshot()["spans"]
        assert spans["outer"]["inclusive_s"] == 4.5
        assert spans["outer"]["exclusive_s"] == 1.5
        assert spans["inner"]["inclusive_s"] == 3.0
        assert spans["inner"]["exclusive_s"] == 3.0

    def test_repeat_calls_accumulate_and_max_tracks_longest(self):
        clock = FakeClock()
        prof = SpanProfiler(clock=clock)
        for duration in (1.0, 4.0, 2.0):
            prof.push("stage")
            clock.advance(duration)
            prof.pop()
        data = prof.snapshot()["spans"]["stage"]
        assert data["calls"] == 3
        assert data["inclusive_s"] == 7.0
        assert data["max_s"] == 4.0

    def test_snapshot_with_open_spans_refuses(self):
        prof = SpanProfiler(clock=FakeClock())
        prof.push("left-open")
        with pytest.raises(RuntimeError, match="left-open"):
            prof.snapshot()


class TestSnapshotsAndMerging:
    def _snapshot(self, durations):
        clock = FakeClock()
        prof = SpanProfiler(clock=clock)
        for name, duration in durations:
            prof.push(name)
            clock.advance(duration)
            prof.pop()
        return prof.snapshot()

    def test_snapshot_validates(self):
        snapshot = self._snapshot([("a", 1.0), ("b", 2.0)])
        assert snapshot["schema"] == PROFILE_SCHEMA
        validate_profile(snapshot)

    def test_merge_adds_times_and_combines_max(self):
        merged = SpanProfiler.merged([
            self._snapshot([("a", 1.0), ("b", 5.0)]),
            self._snapshot([("a", 3.0)]),
        ])
        assert merged["spans"]["a"] == {
            "calls": 2, "inclusive_s": 4.0, "exclusive_s": 4.0, "max_s": 3.0,
        }
        assert merged["spans"]["b"]["calls"] == 1

    def test_validate_rejects_wrong_schema_and_missing_keys(self):
        with pytest.raises(ValueError, match="schema"):
            validate_profile({"schema": "bogus/9", "spans": {}})
        with pytest.raises(ValueError, match="missing"):
            validate_profile({
                "schema": PROFILE_SCHEMA,
                "spans": {"a": {"calls": 1}},
            })
        with pytest.raises(ValueError, match="negative"):
            validate_profile({
                "schema": PROFILE_SCHEMA,
                "spans": {"a": {"calls": -1, "inclusive_s": 0.0,
                                "exclusive_s": 0.0, "max_s": 0.0}},
            })

    def test_null_profiler_measures_nothing(self):
        prof = NullSpanProfiler()
        assert prof.enabled is False
        prof.push("ignored")
        prof.pop()
        snapshot = prof.snapshot()  # no open spans: push was a no-op
        assert snapshot["spans"] == {}
        validate_profile(snapshot)


class TestLiveWiring:
    """The instrumented call sites actually produce their spans."""

    def test_run_mix_profiles_engine_and_policy_spans(self):
        prof = SpanProfiler()
        run_mix(1, DYN_AFF, seed=0, profiler=prof)
        spans = prof.snapshot()["spans"]
        assert spans["engine/run"]["calls"] == 1
        assert spans["policy/new_work"]["calls"] > 0
        assert spans["policy/processor_available"]["calls"] > 0
        # Event spans are labeled by their prefix before the colon.
        assert any(name.startswith("engine/") and name != "engine/run"
                   for name in spans)
        # The run loop's inclusive time bounds everything inside it.
        assert spans["engine/run"]["inclusive_s"] >= \
            spans["policy/new_work"]["inclusive_s"]

    def test_equipartition_profiles_rebalance(self):
        prof = SpanProfiler()
        run_mix(1, EQUIPARTITION, seed=0, profiler=prof)
        spans = prof.snapshot()["spans"]
        assert spans["policy/rebalance"]["calls"] > 0

    def test_penalty_experiment_profiles_cache_and_regimes(self):
        prof = SpanProfiler()
        experiment = PenaltyExperiment(
            scale=16, n_switches_target=3, min_run_s=0.05, profiler=prof
        )
        experiment.measure(APPLICATIONS["MVA"], 0.05, partners=())
        spans = prof.snapshot()["spans"]
        assert spans["cache/access_batch"]["calls"] > 0
        assert any(name.startswith("penalty/") for name in spans)

    def test_penalty_generator_spans_nest_as_documented(self):
        """The measured stream is one ``generator`` span ahead of the
        regimes; partner draws are ``generator`` spans in multiprog."""
        pushed = []

        class Recording(SpanProfiler):
            def push(self, name):
                pushed.append((self._stack[-1][0] if self._stack else None, name))
                super().push(name)

        experiment = PenaltyExperiment(
            scale=16, n_switches_target=3, min_run_s=0.05, profiler=Recording()
        )
        experiment.measure(
            APPLICATIONS["MVA"], 0.05, partners=(APPLICATIONS["MATRIX"],)
        )
        outer = [parent for parent, name in pushed if name == "generator"]
        assert outer.count(None) == 1
        assert set(outer) == {None, "penalty/multiprog"}

    def test_comparison_merges_per_replication_profiles(self):
        comparison = _profiled_comparison([EQUIPARTITION, DYN_AFF])
        assert set(comparison.profiles) == {"Equipartition", "Dyn-Aff"}
        for snapshot in comparison.profiles.values():
            validate_profile(snapshot)
            assert snapshot["spans"]["engine/run"]["calls"] == 2

    def test_profiles_survive_the_process_pool(self):
        serial = _profiled_comparison([DYN_AFF], workers=1)
        parallel = _profiled_comparison([DYN_AFF], workers=2)
        # Wall-clock values differ; the deterministic shape must not.
        assert set(serial.profiles["Dyn-Aff"]["spans"]) == \
            set(parallel.profiles["Dyn-Aff"]["spans"])
        for name, data in serial.profiles["Dyn-Aff"]["spans"].items():
            assert parallel.profiles["Dyn-Aff"]["spans"][name]["calls"] == \
                data["calls"]

    def test_disabled_profiler_collects_no_spans(self):
        prof = NullSpanProfiler()
        run_mix(1, DYN_AFF, seed=0, profiler=prof)
        assert prof.snapshot()["spans"] == {}
