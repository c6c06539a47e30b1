"""Bus contention model."""

import pytest

from repro.machine.bus import BusModel
from repro.machine.params import SEQUENT_SYMMETRY


class TestBusModel:
    def setup_method(self):
        self.bus = BusModel(SEQUENT_SYMMETRY)

    def test_zero_load_no_inflation(self):
        assert self.bus.contention_factor(0.0) == pytest.approx(1.0)
        assert self.bus.effective_miss_time(0.0) == pytest.approx(
            SEQUENT_SYMMETRY.miss_time_s
        )

    def test_inflation_grows_with_load(self):
        light = self.bus.effective_miss_time(100_000)
        heavy = self.bus.effective_miss_time(1_000_000)
        assert heavy > light

    def test_utilization_formula(self):
        # 400k misses/s x 0.75us = 0.3 utilization
        assert self.bus.utilization(400_000) == pytest.approx(0.3)

    def test_utilization_clamped(self):
        assert self.bus.utilization(1e9) == BusModel.MAX_UTILIZATION

    def test_md1_waiting_time(self):
        # At rho = 0.5, M/D/1 waiting is s * 0.5 / (2 * 0.5) = s / 2.
        rho_half_rate = 0.5 / SEQUENT_SYMMETRY.miss_time_s
        expected = SEQUENT_SYMMETRY.miss_time_s * 1.5
        assert self.bus.effective_miss_time(rho_half_rate) == pytest.approx(expected)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            self.bus.utilization(-1.0)


class TestProcessorAndMachine:
    def test_processor_touch_costs(self):
        from repro.machine.processor import Processor

        cpu = Processor(0, SEQUENT_SYMMETRY)
        miss_cost = cpu.touch("t", 0, refs_per_touch=4)
        hit_cost = cpu.touch("t", 0, refs_per_touch=4)
        assert miss_cost == pytest.approx(
            SEQUENT_SYMMETRY.miss_time_s + 3 * SEQUENT_SYMMETRY.hit_time_s
        )
        assert hit_cost == pytest.approx(4 * SEQUENT_SYMMETRY.hit_time_s)
        assert cpu.busy_time == pytest.approx(miss_cost + hit_cost)

    def test_processor_rejects_bad_refs(self):
        from repro.machine.processor import Processor

        with pytest.raises(ValueError):
            Processor(0, SEQUENT_SYMMETRY).touch("t", 0, refs_per_touch=0)
