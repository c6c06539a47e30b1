"""Sample statistics: Welford accumulation and confidence intervals."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.engine.stats import SampleStats, t_critical_95


def _stats(values):
    s = SampleStats()
    for value in values:
        s.add(value)
    return s


class TestSampleStats:
    def test_mean_of_known_values(self):
        s = _stats([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)

    def test_variance_matches_statistics_module(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        s = _stats(values)
        assert s.variance == pytest.approx(statistics.variance(values))

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
        small = _stats([1.0, 2.0, 3.0])
        big = _stats([1.0, 2.0, 3.0] * 20)
        assert big.confidence_interval().half_width < small.confidence_interval().half_width

    def test_ci_of_constant_samples_is_zero_width(self):
        s = _stats([4.2] * 10)
        ci = s.confidence_interval()
        assert ci.half_width == pytest.approx(0.0)

    def test_ci_of_single_sample_is_infinite(self):
        s = SampleStats()
        s.add(1.0)
        assert math.isinf(s.confidence_interval().half_width)

    def test_only_95_percent_supported(self):
        s = _stats([1.0, 2.0])
        with pytest.raises(ValueError):
            s.confidence_interval(confidence=0.99)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
    def test_property_welford_matches_statistics(self, values):
        s = _stats(values)
        assert s.mean == pytest.approx(statistics.fmean(values), abs=1e-6, rel=1e-9)
        assert s.variance == pytest.approx(statistics.variance(values), abs=1e-6, rel=1e-6)


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
