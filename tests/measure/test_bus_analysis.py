"""Bus load estimation from scheduling runs."""

import pytest

from repro.apps import APPLICATIONS, GRAVITY, MATRIX
from repro.core.policies import DYN_AFF, DYNAMIC, EQUIPARTITION
from repro.measure.bus_analysis import estimate_bus_load, steady_state_miss_rate
from repro.measure.runner import run_mix
from repro.machine.params import SEQUENT_SYMMETRY


@pytest.fixture(scope="module")
def mix5_dynamic():
    return run_mix(5, DYNAMIC, seed=0)


class TestSteadyStateRate:
    def test_matches_reference_cold_rate(self):
        rate = steady_state_miss_rate(MATRIX)
        assert rate == pytest.approx(
            MATRIX.reference.cold_pick_rate(SEQUENT_SYMMETRY)
        )

    def test_gravity_misses_more_than_matrix(self):
        """GRAVITY streams; MATRIX is cache blocked."""
        assert steady_state_miss_rate(GRAVITY) > steady_state_miss_rate(MATRIX)


class TestEstimate:
    def test_estimate_fields(self, mix5_dynamic):
        estimate = estimate_bus_load(mix5_dynamic, APPLICATIONS)
        assert set(estimate.steady_miss_rates) == {"MATRIX", "GRAVITY"}
        assert estimate.aggregate_miss_rate > 0
        assert 0 < estimate.utilization < 1

    def test_symmetry_bus_has_headroom(self, mix5_dynamic):
        """The paper's encapsulation assumption requires a non-saturated
        bus: the mix-5 load keeps contention inflation under 25%."""
        estimate = estimate_bus_load(mix5_dynamic, APPLICATIONS)
        assert estimate.contention_factor < 1.25

    def test_affinity_cuts_reload_traffic_share(self, mix5_dynamic):
        """Reload bursts are all-miss, so their *traffic* share is far
        larger than their time share (~45% of misses under oblivious
        Dynamic for only ~5% of time); affinity scheduling cuts it."""
        def reload_share(estimate):
            reload = sum(estimate.reload_miss_rates.values())
            return reload / estimate.aggregate_miss_rate

        oblivious = estimate_bus_load(mix5_dynamic, APPLICATIONS)
        aware = estimate_bus_load(run_mix(5, DYN_AFF, seed=0), APPLICATIONS)
        assert reload_share(oblivious) < 0.6
        assert reload_share(aware) < reload_share(oblivious)

    def test_equipartition_generates_less_reload_traffic(self):
        equi = estimate_bus_load(run_mix(5, EQUIPARTITION, seed=0), APPLICATIONS)
        dyn = estimate_bus_load(run_mix(5, DYN_AFF, seed=0), APPLICATIONS)
        assert sum(equi.reload_miss_rates.values()) < sum(
            dyn.reload_miss_rates.values()
        )

    def test_faster_machine_saturates_the_bus(self, mix5_dynamic):
        """On a 16x machine with sqrt-scaled memory, the same workload
        pushes utilization sharply higher — why Section 7 worries about
        the memory subsystem at all."""
        base = estimate_bus_load(mix5_dynamic, APPLICATIONS)
        fast = estimate_bus_load(
            mix5_dynamic, APPLICATIONS, machine=SEQUENT_SYMMETRY.scaled(16.0, 1.0)
        )
        # Miss *rate* scales with speed while service shrinks only sqrt:
        # utilization grows ~sqrt(16) = 4x.
        assert fast.utilization > 2 * base.utilization
