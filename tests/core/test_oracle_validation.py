"""Cross-validation: analytic footprint model vs simulated caches.

The repository's central approximation — pricing cache reloads with the
analytic footprint model instead of simulating caches inside the
scheduling runs — is validated here end to end: the same scaled-down
workload is scheduled twice, once per oracle, and the outcomes must
agree.
"""

import dataclasses

import pytest

from repro.apps.gravity import GravityParams, GravityPhase, GravitySpec
from repro.apps.mva import MvaParams, MvaSpec
from repro.core.policies import DYN_AFF, DYNAMIC
from repro.core.system import SchedulingSystem
from repro.engine.rng import RngRegistry
from repro.machine.cache_oracle import SimulatedCacheFootprint

#: Scaled-down applications so the simulated-cache run stays fast.
MINI_MVA = MvaSpec(MvaParams(customers=10, stations=10, mean_service_s=0.12))
MINI_GRAVITY = GravitySpec(
    GravityParams(
        n_timesteps=8,
        sequential_service_s=0.15,
        phases=(
            GravityPhase("partition", n_threads=24, mean_service_s=0.03),
            GravityPhase("force", n_threads=32, mean_service_s=0.025),
            GravityPhase("update", n_threads=32, mean_service_s=0.025),
            GravityPhase("collect", n_threads=16, mean_service_s=0.02),
        ),
    )
)


def run_with(policy, oracle=None, seed=3):
    rng = RngRegistry(seed)
    jobs = [
        MINI_MVA.make_job(rng.stream("mva"), n_processors=8),
        MINI_GRAVITY.make_job(rng.stream("grav"), n_processors=8),
    ]
    system = SchedulingSystem(
        jobs,
        policy,
        n_processors=8,
        seed=seed,
        rng=rng.spawn(f"{policy.name}/{'sim' if oracle else 'analytic'}"),
        footprint_model=oracle,
    )
    return system.run()


def make_oracle(seed=3):
    return SimulatedCacheFootprint(
        {
            "MVA": MINI_MVA.reference,
            "GRAVITY": MINI_GRAVITY.reference,
        },
        scale=64,
        seed=seed,
    )


@pytest.fixture(scope="module")
def pair():
    analytic = run_with(DYN_AFF)
    oracle = make_oracle()
    simulated = run_with(DYN_AFF, oracle=oracle)
    return analytic, simulated, oracle


class TestOracleValidation:
    def test_simulation_actually_ran(self, pair):
        _, _, oracle = pair
        assert oracle.touches_simulated > 10_000

    def test_response_times_agree(self, pair):
        """Per-job response times within 10% across oracles."""
        analytic, simulated, _ = pair
        for name in analytic.jobs:
            a = analytic.jobs[name].response_time
            s = simulated.jobs[name].response_time
            assert s == pytest.approx(a, rel=0.10), name

    def test_work_identical(self, pair):
        """The oracle changes only penalties, never the workload."""
        analytic, simulated, _ = pair
        for name in analytic.jobs:
            assert simulated.jobs[name].work == pytest.approx(
                analytic.jobs[name].work, rel=1e-9
            )

    def test_penalty_totals_same_order(self, pair):
        """Total cache penalties agree within a factor of ~2.5."""
        analytic, simulated, _ = pair
        a = sum(m.cache_penalty_total for m in analytic.jobs.values())
        s = sum(m.cache_penalty_total for m in simulated.jobs.values())
        assert a > 0 and s > 0
        assert 1 / 2.5 < s / a < 2.5

    def test_affinity_percentages_agree(self, pair):
        analytic, simulated, _ = pair
        for name in analytic.jobs:
            a = analytic.jobs[name].pct_affinity
            s = simulated.jobs[name].pct_affinity
            assert abs(a - s) < 25.0, name


class TestOracleBehaviour:
    def test_unknown_task_has_no_penalty(self):
        oracle = make_oracle()
        penalty, affine = oracle.reload_penalty(("MVA", 0), 0)
        assert penalty == 0.0 and affine is False

    def test_migration_costs_more_than_return(self):
        oracle = make_oracle()
        curve = None
        oracle.note_run(("MVA", 0), 0, 0.2, curve)
        stay, affine_stay = oracle.reload_penalty(("MVA", 0), 0)
        move, affine_move = oracle.reload_penalty(("MVA", 0), 1)
        assert affine_stay is True and affine_move is False
        assert stay == pytest.approx(0.0)
        assert move > 0.0

    def test_intervening_task_ejects_partially(self):
        oracle = make_oracle()
        oracle.note_run(("MVA", 0), 0, 0.2, None)
        full, _ = oracle.reload_penalty(("MVA", 0), 1)  # = full footprint
        # Run the intruder long enough to force set conflicts even at the
        # coarse 1/64 cache scale, but short enough that something of the
        # victim survives (0.25 s+ would sweep the whole tiny cache).
        oracle.note_run(("GRAVITY", 0), 0, 0.2, None)
        partial, affine = oracle.reload_penalty(("MVA", 0), 0)
        assert affine is True
        assert 0.0 < partial < full

    def test_app_prefix_resolution(self):
        """Tasks of job 'MVA-1' resolve to the MVA reference spec."""
        oracle = make_oracle()
        oracle.note_run(("MVA-1", 0), 0, 0.05, None)
        assert oracle.touches_simulated > 0

    def test_unknown_app_rejected(self):
        oracle = make_oracle()
        with pytest.raises(KeyError):
            oracle.note_run(("NOPE", 0), 0, 0.05, None)
