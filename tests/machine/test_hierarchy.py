"""The two-level cache analysis of Section 7.2."""

import math

import pytest

from repro.machine.hierarchy import TwoLevelCache, sqrt_memory_law_table


class TestEffectiveAccessTime:
    def test_base_machine_formula(self):
        cache = TwoLevelCache(
            l1_time_s=1.0, l2_time_s=4.0, memory_time_s=20.0,
            l1_hit_rate=0.9, l2_hit_rate=0.5,
        )
        expected = 0.9 * 1.0 + 0.1 * (0.5 * 4.0 + 0.5 * 20.0)
        assert cache.effective_access_time() == pytest.approx(expected)

    def test_combined_miss_fraction(self):
        cache = TwoLevelCache(l1_hit_rate=0.9, l2_hit_rate=0.5)
        assert cache.combined_miss_fraction == pytest.approx(0.05)

    def test_faster_processor_shrinks_on_chip_only(self):
        cache = TwoLevelCache()
        fast = cache.effective_access_time(processor_speed=10.0)
        # Memory term unchanged: time cannot drop by the full factor.
        assert fast > cache.effective_access_time() / 10.0

    def test_memory_speedup_attacks_the_residual(self):
        cache = TwoLevelCache()
        without = cache.effective_access_time(processor_speed=10.0)
        with_memory = cache.effective_access_time(10.0, memory_speedup=10.0)
        assert with_memory == pytest.approx(cache.effective_access_time() / 10.0)
        assert with_memory < without

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelCache(l1_hit_rate=1.5)
        with pytest.raises(ValueError):
            TwoLevelCache(l1_time_s=2.0, l2_time_s=1.0)
        with pytest.raises(ValueError):
            TwoLevelCache().effective_access_time(processor_speed=0.0)


class TestMemoryWall:
    def test_speedup_saturates_with_constant_memory(self):
        """The memory wall: delivered speedup is bounded regardless of clock."""
        cache = TwoLevelCache()
        base = cache.effective_access_time()
        s100 = base / cache.effective_access_time(100.0)
        s10000 = base / cache.effective_access_time(10000.0)
        wall = base / (
            cache.combined_miss_fraction * cache.memory_time_s
        )
        assert s100 < wall
        assert s10000 < wall
        assert s10000 - s100 < 0.2 * wall  # deep saturation

    def test_full_speedup_with_matching_memory(self):
        cache = TwoLevelCache()
        speedup = cache.effective_access_time() / cache.effective_access_time(
            50.0, memory_speedup=50.0
        )
        assert speedup == pytest.approx(50.0)


class TestRequiredHitRate:
    def test_modest_speedup_is_achievable(self):
        """At 2x, raising the L2 hit rate alone still works."""
        cache = TwoLevelCache()
        required = cache.required_l2_hit_rate(2.0)
        assert cache.l2_hit_rate < required <= cache.PRACTICAL_L2_CEILING

    def test_requirement_grows_with_speed(self):
        cache = TwoLevelCache()
        values = [cache.required_l2_hit_rate(s) for s in (2, 5, 10, 100)]
        assert values == sorted(values)

    def test_little_room_for_improvement(self):
        """The paper's finding: hit rates cannot be increased enough to
        obviate faster miss resolution (constant memory, 10x CPU)."""
        cache = TwoLevelCache()
        assert not cache.is_full_speedup_feasible(10.0, memory_speedup=1.0)

    def test_sqrt_law_extends_feasibility(self):
        """With memory improving as sqrt(speed), required rates stay
        achievable roughly an order of magnitude further out."""
        cache = TwoLevelCache()
        speed = 10.0
        constant = cache.required_l2_hit_rate(speed, 1.0)
        sqrt = cache.required_l2_hit_rate(speed, math.sqrt(speed))
        assert sqrt < constant
        assert cache.is_full_speedup_feasible(speed, math.sqrt(speed))

    def test_perfect_l1_needs_no_l2(self):
        cache = TwoLevelCache(l1_hit_rate=1.0)
        assert cache.required_l2_hit_rate(100.0) == 0.0

    def test_table_shape(self):
        rows = sqrt_memory_law_table()
        assert [row[0] for row in rows] == [2, 4, 10, 100, 1000]
        for speed, constant, sqrt, feasible in rows:
            assert sqrt <= constant
        # Constant-memory requirements blow through the ceiling early;
        # the sqrt law stays feasible at 10x.
        by_speed = {row[0]: row for row in rows}
        assert by_speed[10][1] > TwoLevelCache.PRACTICAL_L2_CEILING
        assert by_speed[10][3] is True
