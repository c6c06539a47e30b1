"""Counters, gauges, histograms, snapshots, and deterministic merges."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SNAPSHOT_SCHEMA,
    Histogram,
    MetricsRegistry,
    validate_snapshot,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2.5)
        assert registry.counter("a").value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(-4.0)
        assert registry.gauge("g").value == -4.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 2.0, 5.0, 100.0):
            h.observe(value)
        assert h.counts == [1, 2, 1]  # <=1, <=10, overflow
        assert h.count == 4
        assert h.sum == pytest.approx(107.5)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean() == pytest.approx(107.5 / 4)

    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


def _scan_bucket(bounds, value):
    """The bucket a linear scan of ``bounds`` picks: the referee."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


_bound_ladders = st.lists(
    st.floats(allow_nan=False, min_value=-1e6, max_value=1e6), min_size=1, max_size=8
).map(sorted)


class TestHistogramBuckets:
    @given(
        bounds=st.just(DEFAULT_BUCKETS) | _bound_ladders,
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.integers(min_value=-10**6, max_value=10**6)
            | st.sampled_from(DEFAULT_BUCKETS)
        ),
    )
    def test_buckets_match_a_linear_scan(self, bounds, values):
        values = values + list(bounds) + [math.nan, math.inf, -math.inf]
        hist = Histogram(bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            hist.observe(value)
            expected[_scan_bucket(bounds, value)] += 1
        assert hist.counts == expected

    def test_nan_overflows_and_a_bound_is_inclusive(self):
        hist = Histogram((1.0, 2.0))
        for value in (math.nan, 1.0, 2.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]


class TestSnapshot:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(0.005)
        return registry

    def test_snapshot_is_schema_tagged_and_valid(self):
        snapshot = self.make_registry().snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        validate_snapshot(snapshot)  # must not raise

    def test_snapshot_sections_are_key_sorted(self):
        registry = MetricsRegistry()
        for name in ("z", "a", "m"):
            registry.counter(name).inc()
        assert list(registry.snapshot()["counters"]) == ["a", "m", "z"]

    def test_validate_rejects_wrong_schema(self):
        snapshot = self.make_registry().snapshot()
        snapshot["schema"] = "bogus/9"
        with pytest.raises(ValueError):
            validate_snapshot(snapshot)

    def test_validate_rejects_negative_counter(self):
        snapshot = self.make_registry().snapshot()
        snapshot["counters"]["c"] = -1
        with pytest.raises(ValueError):
            validate_snapshot(snapshot)

    def test_validate_rejects_inconsistent_histogram(self):
        snapshot = self.make_registry().snapshot()
        snapshot["histograms"]["h"]["count"] += 1
        with pytest.raises(ValueError):
            validate_snapshot(snapshot)


class TestMerge:
    def snap(self, c, g, h_value):
        registry = MetricsRegistry()
        registry.counter("c").inc(c)
        registry.gauge("g").set(g)
        registry.histogram("h").observe(h_value)
        return registry.snapshot()

    def test_merge_semantics(self):
        merged = MetricsRegistry.merged(
            [self.snap(1, 10.0, 0.5), self.snap(2, 20.0, 5.0)]
        )
        assert merged["counters"]["c"] == 3
        assert merged["gauges"]["g"] == 20.0  # last wins
        h = merged["histograms"]["h"]
        assert h["count"] == 2
        assert h["min"] == 0.5 and h["max"] == 5.0

    def test_merge_order_only_affects_gauges(self):
        a, b = self.snap(1, 10.0, 0.5), self.snap(2, 20.0, 5.0)
        ab = MetricsRegistry.merged([a, b])
        ba = MetricsRegistry.merged([b, a])
        assert ab["counters"] == ba["counters"]
        assert ab["histograms"] == ba["histograms"]
        assert ab["gauges"]["g"] == 20.0 and ba["gauges"]["g"] == 10.0

    def test_merge_rejects_incompatible_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        other = MetricsRegistry()
        other.histogram("h", bounds=(5.0,)).observe(1.5)
        with pytest.raises(ValueError):
            registry.merge_snapshot(other.snapshot())

    def test_merged_snapshot_validates(self):
        validate_snapshot(
            MetricsRegistry.merged([self.snap(1, 1.0, 1.0), self.snap(2, 2.0, 2.0)])
        )
