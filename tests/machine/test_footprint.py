"""Analytic footprint curves and the survival model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.machine.footprint import (
    FootprintCurve,
    FootprintModel,
    LinearFootprintCurve,
)
from repro.machine.params import SEQUENT_SYMMETRY


class TestFootprintCurve:
    def test_zero_duration_zero_blocks(self):
        assert FootprintCurve(1000, 0.1).distinct_blocks(0.0) == 0.0

    def test_saturates_at_w_max(self):
        curve = FootprintCurve(w_max=1000, tau=0.1)
        assert curve.distinct_blocks(100.0) == pytest.approx(1000, rel=1e-6)

    def test_monotone_in_duration(self):
        curve = FootprintCurve(w_max=1000, tau=0.1)
        values = [curve.distinct_blocks(d) for d in (0.01, 0.05, 0.2, 1.0)]
        assert values == sorted(values)

    def test_initial_rate_is_w_max_over_tau(self):
        curve = FootprintCurve(w_max=1000, tau=0.1)
        d = 1e-6
        assert curve.distinct_blocks(d) / d == pytest.approx(10000, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FootprintCurve(0, 0.1)
        with pytest.raises(ValueError):
            FootprintCurve(100, 0)


class TestLinearFootprintCurve:
    def test_hot_set_loads_immediately(self):
        curve = LinearFootprintCurve(hot=500, rate=1000, cap=4000)
        assert curve.distinct_blocks(1e-9) == pytest.approx(500, rel=1e-3)

    def test_linear_growth(self):
        curve = LinearFootprintCurve(hot=500, rate=1000, cap=1e9)
        assert curve.distinct_blocks(2.0) == pytest.approx(2500)

    def test_caps_at_data_size(self):
        curve = LinearFootprintCurve(hot=500, rate=1000, cap=1500)
        assert curve.distinct_blocks(100.0) == 1500

    def test_zero_duration(self):
        assert LinearFootprintCurve(500, 1000, 4000).distinct_blocks(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearFootprintCurve(-1, 0, 100)
        with pytest.raises(ValueError):
            LinearFootprintCurve(0, 0, 0)


class TestFootprintModel:
    def setup_method(self):
        self.model = FootprintModel(SEQUENT_SYMMETRY)
        self.curve = FootprintCurve(w_max=2000, tau=0.05)

    def test_new_task_has_no_penalty(self):
        penalty, affine = self.model.reload_penalty("t", 0)
        assert penalty == 0.0
        assert affine is False

    def test_stationary_resume_is_free(self):
        """Same processor, no intervening task: zero penalty, affinity."""
        self.model.note_run("t", 0, 0.1, self.curve)
        penalty, affine = self.model.reload_penalty("t", 0)
        assert penalty == 0.0
        assert affine is True

    def test_migration_pays_full_footprint(self):
        """Moving to another processor costs footprint x miss time (P^NA)."""
        self.model.note_run("t", 0, 0.1, self.curve)
        footprint = self.model.state_of("t").footprint
        penalty, affine = self.model.reload_penalty("t", 1)
        assert affine is False
        assert penalty == pytest.approx(footprint * SEQUENT_SYMMETRY.miss_time_s)

    def test_intervening_task_partially_ejects(self):
        """P^A: affinity resume after an intervening task costs 0 < p < P^NA."""
        self.model.note_run("t", 0, 0.1, self.curve)
        self.model.note_run("intruder", 0, 0.1, self.curve)
        p_a, affine = self.model.reload_penalty("t", 0)
        p_na = self.model.state_of("t").footprint * SEQUENT_SYMMETRY.miss_time_s
        assert affine is True
        assert 0 < p_a < p_na

    def test_more_intervening_usage_ejects_more(self):
        self.model.note_run("t", 0, 0.1, self.curve)
        self.model.note_run("i1", 0, 0.05, self.curve)
        penalty_one, _ = self.model.reload_penalty("t", 0)
        self.model.note_run("i2", 0, 0.4, self.curve)
        penalty_two, _ = self.model.reload_penalty("t", 0)
        assert penalty_two > penalty_one

    def test_survival_is_exponential_in_intervening_fills(self):
        self.model.note_run("t", 0, 0.1, self.curve)
        footprint = self.model.state_of("t").footprint
        usage_before = self.model.processor_usage(0)
        self.model.note_run("intruder", 0, 0.2, self.curve)
        fills = self.model.processor_usage(0) - usage_before
        surviving = self.model.surviving_footprint("t", 0)
        expected = footprint * math.exp(-fills / SEQUENT_SYMMETRY.cache_lines)
        assert surviving == pytest.approx(expected)

    def test_footprint_capped_at_cache_lines(self):
        huge = FootprintCurve(w_max=1e7, tau=0.001)
        self.model.note_run("t", 0, 10.0, huge)
        assert self.model.state_of("t").footprint <= SEQUENT_SYMMETRY.cache_lines

    def test_longer_stints_build_bigger_footprints(self):
        self.model.note_run("a", 0, 0.01, self.curve)
        self.model.note_run("b", 1, 0.2, self.curve)
        assert self.model.state_of("b").footprint > self.model.state_of("a").footprint

    def test_forget_removes_state(self):
        self.model.note_run("t", 0, 0.1, self.curve)
        self.model.forget("t")
        penalty, affine = self.model.reload_penalty("t", 0)
        assert penalty == 0.0 and affine is False

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            self.model.note_run("t", 0, -1.0, self.curve)

    def test_zero_duration_run_keeps_previous_footprint(self):
        self.model.note_run("t", 0, 0.1, self.curve)
        before = self.model.state_of("t").footprint
        self.model.note_run("t", 0, 0.0, self.curve)
        assert self.model.state_of("t").footprint == pytest.approx(before)


@given(
    durations=st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=1, max_size=20),
    processors=st.lists(st.integers(0, 3), min_size=1, max_size=20),
)
def test_property_penalty_never_negative_or_above_full_fill(durations, processors):
    """Penalties stay within [0, full cache fill] whatever the run history."""
    model = FootprintModel(SEQUENT_SYMMETRY)
    curve = FootprintCurve(w_max=3000, tau=0.02)
    for i, (duration, cpu) in enumerate(zip(durations, processors)):
        task = f"t{i % 3}"
        penalty, _ = model.reload_penalty(task, cpu)
        full_fill_s = SEQUENT_SYMMETRY.cache_lines * SEQUENT_SYMMETRY.miss_time_s
        assert 0.0 <= penalty <= full_fill_s + 1e-12
        model.note_run(task, cpu, duration, curve)
