"""Section 8's time sharing, run by the scheduling system."""

import collections

import pytest

from repro.core.policies import TIME_SHARING, TIME_SHARING_AFFINITY
from repro.core.system import SchedulingSystem
from repro.obs import Tracer
from repro.obs.records import Undispatch
from tests.core.helpers import chain_job, flat_job, phased_job


def run(jobs, policy=TIME_SHARING, n_processors=4, seed=0):
    """(result, tracer records) of one traced time-sharing run."""
    tracer = Tracer()
    result = SchedulingSystem(
        jobs, policy, n_processors=n_processors, seed=seed, tracer=tracer
    ).run()
    return result, tracer.records


def involuntary_switches(records):
    """Quantum preemptions (voluntary leaves are "yield" and "idle")."""
    reasons = collections.Counter(
        r.reason for r in records if isinstance(r, Undispatch)
    )
    return reasons["preempt"]


class TestBasics:
    def test_single_job_completes(self):
        job = flat_job("J", 8, 0.5, workers=4)
        result, _ = run([job])
        assert result.jobs["J"].work == pytest.approx(4.0)
        assert result.jobs["J"].response_time >= 1.0

    def test_work_conserved_across_jobs(self):
        a = flat_job("A", 8, 0.5, workers=4)
        b = flat_job("B", 8, 0.5, workers=4)
        result, _ = run([a, b])
        assert result.jobs["A"].work == pytest.approx(4.0)
        assert result.jobs["B"].work == pytest.approx(4.0)

    def test_chain_completes_with_quantum_preemption(self):
        """A thread longer than the quantum is sliced but finishes."""
        job = chain_job("J", 2, 0.35)  # 0.35s threads vs 0.1s quantum
        result, records = run([job], n_processors=1)
        assert result.jobs["J"].work == pytest.approx(0.7)
        assert involuntary_switches(records) >= 4  # ~3 slices per thread

    def test_quantum_expiry_counts_involuntary(self):
        long_threads = flat_job("L", 2, 1.0, workers=2)
        contender = flat_job("C", 2, 1.0, workers=2)
        _, records = run([long_threads, contender], n_processors=2)
        assert involuntary_switches(records) > 10

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SchedulingSystem(
                [chain_job("X", 1, 1.0), chain_job("X", 1, 1.0)], TIME_SHARING
            )

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            SchedulingSystem([], TIME_SHARING)


class TestRotation:
    def test_processors_rotate_among_jobs(self):
        """With more runnable workers than processors, everyone advances."""
        jobs = [flat_job(f"J{i}", 4, 0.5, workers=2) for i in range(4)]
        result, _ = run(jobs, n_processors=2)
        times = [m.response_time for m in result.jobs.values()]
        # Round-robin: all four finish within a similar window, far later
        # than any would alone (0.5 x 2 = 1s alone on 2 cpus).
        assert min(times) > 2.0
        assert max(times) < 3 * min(times)

    def test_rotation_induces_low_affinity(self):
        # Worker count coprime to processor count and unequal service
        # times, so the FIFO rotation cannot be accidentally periodic.
        jobs = [
            flat_job(f"J{i}", 8, 0.7 + 0.2 * i, workers=3) for i in range(3)
        ]
        result, _ = run(jobs, TIME_SHARING, n_processors=4)
        for metrics in result.jobs.values():
            assert metrics.pct_affinity < 60.0


class TestAffinityVariant:
    def make_pair(self, policy, seed=3):
        a = phased_job("A", 6, 8, 0.05, workers=4)
        b = flat_job("B", 8, 2.0, workers=4)
        return run([a, b], policy, n_processors=4, seed=seed)[0]

    def test_affinity_raises_pct_affinity(self):
        plain = self.make_pair(TIME_SHARING)
        aware = self.make_pair(TIME_SHARING_AFFINITY)
        for job in ("A", "B"):
            assert aware.jobs[job].pct_affinity > plain.jobs[job].pct_affinity

    def test_affinity_lowers_cache_penalties(self):
        plain = self.make_pair(TIME_SHARING)
        aware = self.make_pair(TIME_SHARING_AFFINITY)
        total_plain = sum(m.cache_penalty_total for m in plain.jobs.values())
        total_aware = sum(m.cache_penalty_total for m in aware.jobs.values())
        assert total_aware < total_plain

    def test_aging_prevents_starvation(self):
        """Affinity search must not starve tasks with no affine processor."""
        hog = flat_job("HOG", 16, 2.0, workers=4)
        victim = flat_job("VICTIM", 8, 0.5, workers=4)
        result, _ = run([hog, victim], TIME_SHARING_AFFINITY, n_processors=4)
        # The victim's work is 4s of 36 total; a fair rotation finishes it
        # well inside the hog's span (~9s of pure work on 4 cpus).
        assert result.jobs["VICTIM"].response_time < result.jobs["HOG"].response_time


class TestDisruptions:
    def test_cancellation_drops_queued_workers(self):
        jobs = [flat_job(f"J{i}", 8, 1.0, workers=4) for i in range(3)]
        system = SchedulingSystem(jobs, TIME_SHARING, n_processors=2)
        system.sim.at(0.35, lambda: system.cancel_job(jobs[1]))
        result = system.run()
        assert set(result.jobs) == {"J0", "J2"}
        assert "J1" in result.cancelled
        assert not system.run_queue
