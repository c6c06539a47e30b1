"""Machine spec arithmetic and scaling."""

import pytest

from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec, future_machine


class TestSequentSymmetry:
    """The constants the paper states for its testbed."""

    def test_twenty_processors(self):
        assert SEQUENT_SYMMETRY.n_processors == 20

    def test_cache_geometry(self):
        assert SEQUENT_SYMMETRY.cache_size_bytes == 64 * 1024
        assert SEQUENT_SYMMETRY.associativity == 2
        assert SEQUENT_SYMMETRY.line_size_bytes == 16

    def test_4096_lines_2048_sets(self):
        assert SEQUENT_SYMMETRY.cache_lines == 4096
        assert SEQUENT_SYMMETRY.cache_sets == 2048

    def test_full_fill_time_is_3072_usec(self):
        """The paper: 3.072 msec to fill the whole cache."""
        fill_s = SEQUENT_SYMMETRY.cache_lines * SEQUENT_SYMMETRY.miss_time_s
        assert fill_s == pytest.approx(3.072e-3)

    def test_context_switch_is_750_usec(self):
        assert SEQUENT_SYMMETRY.context_switch_s == pytest.approx(750e-6)

    def test_miss_time_is_750_nsec(self):
        assert SEQUENT_SYMMETRY.miss_time_s == pytest.approx(0.75e-6)


class TestValidation:
    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            MachineSpec("bad", 0, 16.0, 1024, 2, 16, 1e-6, 1e-7, 1e-4)

    def test_rejects_ragged_cache(self):
        with pytest.raises(ValueError):
            MachineSpec("bad", 1, 16.0, 1000, 3, 16, 1e-6, 1e-7, 1e-4)

    def test_rejects_miss_cheaper_than_hit(self):
        with pytest.raises(ValueError):
            MachineSpec("bad", 1, 16.0, 1024, 2, 16, 1e-8, 1e-7, 1e-4)


class TestFutureScaling:
    """Section 7.1's assumptions."""

    def test_compute_scales_linearly(self):
        fast = future_machine(processor_speed=4.0, cache_size_factor=1.0)
        assert fast.hit_time_s == pytest.approx(SEQUENT_SYMMETRY.hit_time_s / 4)
        assert fast.context_switch_s == pytest.approx(SEQUENT_SYMMETRY.context_switch_s / 4)

    def test_miss_resolution_scales_as_sqrt(self):
        fast = future_machine(processor_speed=4.0, cache_size_factor=1.0)
        assert fast.miss_time_s == pytest.approx(SEQUENT_SYMMETRY.miss_time_s / 2)

    def test_cache_grows_linearly(self):
        big = future_machine(processor_speed=1.0, cache_size_factor=4.0)
        assert big.cache_lines == 4 * SEQUENT_SYMMETRY.cache_lines

    def test_scale_factors_compose(self):
        machine = future_machine(2.0, 2.0).scaled(3.0, 4.0)
        assert machine.processor_speed == pytest.approx(6.0)
        assert machine.cache_size_factor == pytest.approx(8.0)

    def test_rejects_non_positive_factors(self):
        with pytest.raises(ValueError):
            future_machine(0.0, 1.0)
        with pytest.raises(ValueError):
            future_machine(1.0, -2.0)
