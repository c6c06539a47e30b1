"""Interval series: windows tile the run and counts reconcile with the trace."""

import pytest

from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.obs import Tracer, metrics_from_records
from repro.obs.analysis import WINDOW_FIELDS, interval_series
from repro.obs.records import CacheBatch, Dispatch
from repro.core.system import SchedulingSystem
from tests.obs.test_invariant_properties import random_mix


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    SchedulingSystem(random_mix(11), DYN_AFF, n_processors=8, seed=0, tracer=tracer).run()
    return tracer.records, metrics_from_records(tracer.records).snapshot()


class TestWindowGeometry:
    def test_windows_tile_t0_to_makespan(self, traced):
        records, _ = traced
        series = interval_series(records, window_s=0.25)
        assert series.windows, "a real run must produce windows"
        assert series.windows[0]["start"] == series.t0
        assert series.windows[-1]["end"] == series.makespan
        for prev, cur in zip(series.windows, series.windows[1:]):
            assert prev["end"] == cur["start"]
        # All but the (clamped) final window are exactly window_s wide.
        for w in series.windows[:-1]:
            assert w["end"] - w["start"] == pytest.approx(0.25)

    def test_every_window_has_every_field(self, traced):
        records, _ = traced
        series = interval_series(records, window_s=0.5)
        for w in series.windows:
            assert tuple(w) == WINDOW_FIELDS

    def test_rejects_non_positive_window(self, traced):
        records, _ = traced
        for bad in (0, -1.0):
            with pytest.raises(ValueError):
                interval_series(records, window_s=bad)

    def test_rejects_unframed_trace(self, traced):
        records, _ = traced
        with pytest.raises(ValueError):
            interval_series(records[1:], window_s=0.5)
        with pytest.raises(ValueError):
            interval_series(records[:-1], window_s=0.5)


class TestCountsReconcile:
    """Window sums must equal whole-trace counts — nothing double-binned."""

    def test_dispatch_counts_sum_to_trace_totals(self, traced):
        records, _ = traced
        series = interval_series(records, window_s=0.3)
        dispatches = [r for r in records if isinstance(r, Dispatch)]
        reallocs = [r for r in dispatches if not r.cheap]
        assert sum(w["dispatches"] for w in series.windows) == len(dispatches)
        assert sum(w["reallocations"] for w in series.windows) == len(reallocs)
        assert sum(w["affine_reallocations"] for w in series.windows) == sum(
            1 for r in reallocs if r.affine
        )

    def test_reallocations_match_metrics_counter(self, traced):
        records, snapshot = traced
        series = interval_series(records, window_s=0.3)
        assert sum(w["reallocations"] for w in series.windows) == \
            snapshot["counters"]["dispatch/reallocations"]

    def test_cache_counts_sum_to_batch_records(self, traced):
        records, _ = traced
        series = interval_series(records, window_s=0.2)
        batches = [r for r in records if isinstance(r, CacheBatch)]
        assert sum(w["accesses"] for w in series.windows) == \
            sum(r.n for r in batches)
        assert sum(w["misses"] for w in series.windows) == \
            sum(r.n - r.hits for r in batches)


class TestRatios:
    def test_ratios_stay_in_unit_range(self, traced):
        records, _ = traced
        series = interval_series(records, window_s=0.25)
        for w in series.windows:
            assert 0.0 <= w["utilization"] <= 1.0
            assert 0.0 <= w["miss_rate"] <= 1.0
            assert 0.0 <= w["affinity_hit_ratio"] <= 1.0
            assert 0.0 <= w["fragmentation"] <= 1.0
            assert w["realloc_rate"] >= 0.0

    def test_single_window_collapses_to_run_aggregate(self, traced):
        """One huge window must reproduce the whole-run ratios."""
        records, _ = traced
        series = interval_series(records, window_s=1e9)
        assert len(series.windows) == 1
        w = series.windows[0]
        dispatches = [r for r in records if isinstance(r, Dispatch)]
        reallocs = [r for r in dispatches if not r.cheap]
        assert w["dispatches"] == len(dispatches)
        assert w["reallocations"] == len(reallocs)

    def test_equipartition_has_perfect_affinity_hit_ratio(self):
        """Equipartition never migrates a worker once placed, so every
        non-cheap dispatch (the initial placements) is at worst neutral;
        windows with reallocations report a well-defined ratio."""
        tracer = Tracer()
        SchedulingSystem(
            random_mix(22), EQUIPARTITION, n_processors=8, seed=0,
            tracer=tracer,
        ).run()
        series = interval_series(tracer.records, window_s=0.5)
        for w in series.windows:
            if w["reallocations"]:
                assert w["affinity_hit_ratio"] == \
                    w["affine_reallocations"] / w["reallocations"]
