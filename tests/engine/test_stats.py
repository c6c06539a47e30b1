"""Sample statistics: Welford accumulation, merging, confidence intervals."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.engine.stats import (
    ConfidenceInterval,
    SampleStats,
    mean_confidence_interval,
    t_critical_95,
)


class TestSampleStats:
    def test_mean_of_known_values(self):
        s = SampleStats()
        s.extend([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)

    def test_variance_matches_statistics_module(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        s = SampleStats()
        s.extend(values)
        assert s.variance == pytest.approx(statistics.variance(values))

    def test_min_max_tracking(self):
        s = SampleStats()
        s.extend([3.0, -1.0, 7.0])
        assert s.minimum == -1.0
        assert s.maximum == 7.0

    def test_empty_stats(self):
        s = SampleStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value_has_zero_variance(self):
        s = SampleStats()
        s.add(5.0)
        assert s.variance == 0.0

    def test_ci_shrinks_with_more_samples(self):
        small = SampleStats()
        small.extend([1.0, 2.0, 3.0])
        big = SampleStats()
        big.extend([1.0, 2.0, 3.0] * 20)
        assert big.confidence_interval().half_width < small.confidence_interval().half_width

    def test_ci_of_constant_samples_is_zero_width(self):
        s = SampleStats()
        s.extend([4.2] * 10)
        ci = s.confidence_interval()
        assert ci.half_width == pytest.approx(0.0)

    def test_ci_of_single_sample_is_infinite(self):
        s = SampleStats()
        s.add(1.0)
        assert math.isinf(s.confidence_interval().half_width)

    def test_only_95_percent_supported(self):
        s = SampleStats()
        s.extend([1.0, 2.0])
        with pytest.raises(ValueError):
            s.confidence_interval(confidence=0.99)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
    def test_property_welford_matches_statistics(self, values):
        s = SampleStats()
        s.extend(values)
        assert s.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert s.variance == pytest.approx(statistics.variance(values), abs=1e-6, rel=1e-6)


class TestMerge:
    def test_merge_empty_into_empty(self):
        a, b = SampleStats(), SampleStats()
        a.merge(b)
        assert a.n == 0

    def test_merge_into_empty_copies(self):
        a, b = SampleStats(), SampleStats()
        b.extend([1.0, 2.0, 3.0])
        a.merge(b)
        assert a.n == 3
        assert a.mean == pytest.approx(2.0)
        assert a.variance == pytest.approx(1.0)
        assert (a.minimum, a.maximum) == (1.0, 3.0)

    def test_merge_empty_is_noop(self):
        a, b = SampleStats(), SampleStats()
        a.extend([1.0, 2.0])
        a.merge(b)
        assert a.n == 2
        assert a.mean == pytest.approx(1.5)

    def test_merged_classmethod(self):
        parts = []
        for chunk in ([1.0, 2.0], [3.0], [4.0, 5.0, 6.0]):
            part = SampleStats()
            part.extend(chunk)
            parts.append(part)
        total = SampleStats.merged(parts)
        assert total.n == 6
        assert total.mean == pytest.approx(3.5)
        assert total.variance == pytest.approx(statistics.variance([1, 2, 3, 4, 5, 6]))

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60),
        st.integers(min_value=0, max_value=60),
    )
    def test_property_merge_matches_serial_welford(self, values, cut):
        """Chan et al. pairwise merge of any split equals one serial pass."""
        cut = min(cut, len(values))
        left, right = SampleStats(), SampleStats()
        left.extend(values[:cut])
        right.extend(values[cut:])
        left.merge(right)
        serial = SampleStats()
        serial.extend(values)
        assert left.n == serial.n
        assert left.mean == pytest.approx(serial.mean, abs=1e-6, rel=1e-9)
        assert left.variance == pytest.approx(serial.variance, abs=1e-6, rel=1e-6)
        assert left.minimum == serial.minimum
        assert left.maximum == serial.maximum


class TestTCritical:
    def test_known_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)

    def test_large_dof_approaches_normal(self):
        assert t_critical_95(500) == pytest.approx(1.960)

    def test_interpolates_between_table_entries(self):
        assert 2.0 <= t_critical_95(45) <= 2.021

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestConfidenceInterval:
    def test_bounds(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, n=5)
        assert ci.low == 8.0
        assert ci.high == 12.0

    def test_helper_function(self):
        ci = mean_confidence_interval([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 3
