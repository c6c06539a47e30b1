"""Policy definitions and the equipartition allocation-number algorithm."""

import pytest
from hypothesis import given, strategies as st

from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
    POLICIES,
    Policy,
    equipartition_allocation,
)


class TestPolicyDefinitions:
    def test_five_policies_registered(self):
        assert set(POLICIES) == {
            "Equipartition",
            "Dynamic",
            "Dyn-Aff",
            "Dyn-Aff-NoPri",
            "Dyn-Aff-Delay",
        }

    def test_equipartition_is_static(self):
        assert EQUIPARTITION.is_equipartition
        assert not EQUIPARTITION.is_dynamic

    def test_dynamic_flags(self):
        assert DYNAMIC.is_dynamic
        assert not DYNAMIC.use_affinity
        assert DYNAMIC.respect_priority
        assert DYNAMIC.yield_delay_s == 0.0

    def test_dyn_aff_adds_affinity_only(self):
        assert DYN_AFF.use_affinity
        assert DYN_AFF.respect_priority
        assert DYN_AFF.yield_delay_s == 0.0

    def test_nopri_drops_priority(self):
        assert DYN_AFF_NOPRI.use_affinity
        assert not DYN_AFF_NOPRI.respect_priority

    def test_delay_has_positive_window(self):
        assert DYN_AFF_DELAY.yield_delay_s > 0.0
        assert DYN_AFF_DELAY.use_affinity
        assert DYN_AFF_DELAY.respect_priority

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Policy("bad", "gang", False, False)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Policy("bad", "dynamic", False, False, yield_delay_s=-1.0)


class TestEquipartitionAllocation:
    def test_even_split(self):
        result = equipartition_allocation({"a": 16, "b": 16}, 16)
        assert result == {"a": 8, "b": 8}

    def test_remainder_goes_round_robin(self):
        result = equipartition_allocation({"a": 16, "b": 16, "c": 16}, 16)
        assert sorted(result.values()) == [5, 5, 6]
        assert result["a"] == 6  # first in insertion order

    def test_capped_job_drops_out(self):
        """A job at its maximum parallelism stops receiving processors."""
        result = equipartition_allocation({"small": 2, "big": 16}, 16)
        assert result == {"small": 2, "big": 14}

    def test_all_jobs_capped_leaves_processors_unused(self):
        result = equipartition_allocation({"a": 3, "b": 2}, 16)
        assert result == {"a": 3, "b": 2}

    def test_more_jobs_than_processors(self):
        result = equipartition_allocation({f"j{i}": 16 for i in range(5)}, 3)
        assert sorted(result.values()) == [0, 0, 1, 1, 1]

    def test_no_jobs(self):
        assert equipartition_allocation({}, 16) == {}

    def test_zero_cap_job_gets_nothing(self):
        result = equipartition_allocation({"a": 0, "b": 16}, 4)
        assert result == {"a": 0, "b": 4}

    def test_negative_processors_rejected(self):
        with pytest.raises(ValueError):
            equipartition_allocation({"a": 1}, -1)

    @given(
        caps=st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.integers(min_value=0, max_value=32),
            min_size=1,
            max_size=8,
        ),
        n_processors=st.integers(min_value=0, max_value=40),
    )
    def test_property_allocation_sound(self, caps, n_processors):
        """Never over-allocates, never exceeds caps, uses all it can."""
        result = equipartition_allocation(caps, n_processors)
        assert sum(result.values()) <= n_processors
        for name, count in result.items():
            assert 0 <= count <= caps[name]
        # Work-conserving up to caps: either all processors allocated or
        # every job is at its cap.
        total = sum(result.values())
        if total < n_processors:
            assert all(result[name] == caps[name] for name in caps)

    @given(
        n_jobs=st.integers(min_value=1, max_value=8),
        n_processors=st.integers(min_value=0, max_value=40),
    )
    def test_property_uncapped_split_is_fair(self, n_jobs, n_processors):
        """With no caps binding, allocations differ by at most one."""
        caps = {f"j{i}": 1000 for i in range(n_jobs)}
        result = equipartition_allocation(caps, n_processors)
        values = list(result.values())
        assert max(values) - min(values) <= 1
        assert sum(values) == min(n_processors, n_jobs * 1000)
