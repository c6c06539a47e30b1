"""Scheduling system integration: conservation, accounting, policies."""

import pytest

from repro.core.policies import DYN_AFF, DYNAMIC, EQUIPARTITION
from repro.core.system import SchedulingSystem
from repro.obs import Tracer
from repro.obs.invariants import check_trace
from repro.obs.records import CacheFlush, Dispatch, JobArrival, JobCancelled, RunEnd
from tests.core.helpers import chain_job, flat_job, phased_job


class TestSingleJob:
    def test_single_thread_single_processor(self):
        job = chain_job("J", 1, 2.0)
        result = SchedulingSystem([job], DYNAMIC, n_processors=1).run()
        metrics = result.jobs["J"]
        # One dispatch: context switch, no cache reload (fresh task).
        assert metrics.response_time == pytest.approx(2.0 + 750e-6)
        assert metrics.work == pytest.approx(2.0)
        assert metrics.n_reallocations == 1

    def test_chain_runs_sequentially(self):
        job = chain_job("J", 5, 1.0)
        result = SchedulingSystem([job], DYNAMIC, n_processors=4).run()
        assert result.jobs["J"].response_time == pytest.approx(5.0, rel=1e-3)

    def test_flat_fan_uses_all_processors(self):
        job = flat_job("J", 8, 1.0, workers=4)
        result = SchedulingSystem([job], DYNAMIC, n_processors=4).run()
        assert result.jobs["J"].response_time == pytest.approx(2.0, rel=1e-2)
        assert result.jobs["J"].average_allocation == pytest.approx(4.0, rel=1e-2)

    def test_worker_continuation_is_free(self):
        """Threads run back-to-back on one worker pay one dispatch only."""
        job = chain_job("J", 10, 0.5)
        result = SchedulingSystem([job], DYNAMIC, n_processors=1).run()
        assert result.jobs["J"].n_reallocations == 1
        assert result.jobs["J"].switch_overhead_total == pytest.approx(750e-6)

    def test_work_conservation(self):
        job = phased_job("J", 3, 6, 0.5, workers=4)
        expected = job.graph.total_work()
        result = SchedulingSystem([job], DYNAMIC, n_processors=4).run()
        assert result.jobs["J"].work == pytest.approx(expected)


class TestMultiJob:
    def make(self, policy, n_processors=4):
        a = flat_job("A", 12, 1.0, workers=4)
        b = flat_job("B", 12, 1.0, workers=4)
        return SchedulingSystem([a, b], policy, n_processors=n_processors)

    @pytest.mark.parametrize("policy", [EQUIPARTITION, DYNAMIC, DYN_AFF])
    def test_work_conserved_under_all_policies(self, policy):
        system = self.make(policy)
        result = system.run()
        assert result.jobs["A"].work == pytest.approx(12.0)
        assert result.jobs["B"].work == pytest.approx(12.0)

    def test_equipartition_splits_evenly(self):
        result = self.make(EQUIPARTITION).run()
        # 2 identical jobs, 4 processors: each runs 12 threads on 2.
        assert result.jobs["A"].average_allocation == pytest.approx(2.0, rel=0.05)
        assert result.jobs["A"].response_time == pytest.approx(6.0, rel=0.05)

    def test_dynamic_has_no_waste_without_delay(self):
        result = self.make(DYNAMIC).run()
        assert result.jobs["A"].waste == 0.0
        assert result.jobs["B"].waste == 0.0

    def test_equipartition_accrues_waste_on_idle_phases(self):
        a = phased_job("A", 4, 2, 0.5, workers=4)  # parallelism 2 of 4 held
        b = flat_job("B", 8, 1.0, workers=4)
        result = SchedulingSystem([a, b], EQUIPARTITION, n_processors=8).run()
        # A holds 4 processors but can only ever use 2.
        assert result.jobs["A"].waste > 0.5

    def test_dynamic_reclaims_idle_processors(self):
        a = phased_job("A", 4, 2, 0.5, workers=4)
        b = flat_job("B", 40, 1.0, workers=8)
        equi = SchedulingSystem(
            [a, b], EQUIPARTITION, n_processors=8, seed=1
        ).run()
        a2 = phased_job("A", 4, 2, 0.5, workers=4)
        b2 = flat_job("B", 40, 1.0, workers=8)
        dyn = SchedulingSystem([a2, b2], DYNAMIC, n_processors=8, seed=1).run()
        assert dyn.jobs["B"].response_time < equi.jobs["B"].response_time

    def test_makespan_at_least_work_over_capacity(self):
        system = self.make(DYNAMIC)
        result = system.run()
        assert result.makespan >= 24.0 / 4 - 1e-9

    def test_mean_response_time(self):
        result = self.make(DYNAMIC).run()
        jobs = list(result.jobs.values())
        expected = sum(m.response_time for m in jobs) / 2
        assert result.mean_response_time() == pytest.approx(expected)


class TestPreemption:
    def test_preempted_work_is_not_lost(self):
        """A long job loses processors to a newcomer but completes all work."""
        hog = flat_job("HOG", 4, 5.0, workers=4)
        newcomer = flat_job("NEW", 4, 1.0, workers=4)
        system = SchedulingSystem(
            [hog, newcomer],
            DYNAMIC,
            n_processors=4,
            arrival_times=[0.0, 1.0],
        )
        result = system.run()
        assert result.jobs["HOG"].work == pytest.approx(20.0)
        assert result.jobs["NEW"].work == pytest.approx(4.0)

    def test_newcomer_gets_processors_via_d3(self):
        hog = flat_job("HOG", 8, 5.0, workers=4)
        newcomer = flat_job("NEW", 4, 1.0, workers=4)
        system = SchedulingSystem(
            [hog, newcomer], DYNAMIC, n_processors=4, arrival_times=[0.0, 1.0]
        )
        result = system.run()
        # The newcomer must not wait for the hog's 5s threads to finish:
        # D.3 preempts to parity, so it finishes well before t = 7.
        assert result.jobs["NEW"].response_time < 4.0


class TestValidationAndDeterminism:
    def test_duplicate_job_names_rejected(self):
        with pytest.raises(ValueError):
            SchedulingSystem(
                [chain_job("X", 1, 1.0), chain_job("X", 1, 1.0)],
                DYNAMIC,
                n_processors=2,
            )

    def test_too_many_processors_rejected(self):
        with pytest.raises(ValueError):
            SchedulingSystem([chain_job("X", 1, 1.0)], DYNAMIC, n_processors=21)

    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError):
            SchedulingSystem([], DYNAMIC)

    def test_same_seed_reproduces_results(self):
        def run():
            jobs = [flat_job("A", 10, 1.0, 4), phased_job("B", 3, 4, 0.5, 4)]
            return SchedulingSystem(jobs, DYNAMIC, n_processors=4, seed=9).run()

        first, second = run(), run()
        for name in first.jobs:
            assert first.jobs[name].response_time == second.jobs[name].response_time
            assert first.jobs[name].n_reallocations == second.jobs[name].n_reallocations

    def test_run_until_reports_unfinished(self):
        job = chain_job("SLOW", 100, 1.0)
        system = SchedulingSystem([job], DYNAMIC, n_processors=1)
        result = system.run(until=5.0)
        assert "SLOW" not in result.jobs
        assert result.makespan == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "make_jobs, policy, n_processors, pauses",
        [
            (lambda: [chain_job("SLOW", 100, 1.0)], DYNAMIC, 1, (5.0,)),
            (
                lambda: [flat_job("A", 10, 1.0, 4), phased_job("B", 3, 4, 0.5, 4)],
                DYN_AFF, 4, (0.5, 1.25, 2.0),
            ),
        ],
        ids=["chain", "two-jobs"],
    )
    def test_resumed_run_matches_an_uninterrupted_one(
        self, make_jobs, policy, n_processors, pauses
    ):
        def traced_system():
            tracer = Tracer()
            system = SchedulingSystem(
                make_jobs(), policy, n_processors=n_processors, seed=3, tracer=tracer
            )
            return system, tracer

        whole, whole_trace = traced_system()
        expected = whole.run()
        paused, paused_trace = traced_system()
        for until in pauses:
            assert paused.run(until=until).makespan == pytest.approx(until)
            assert not any(isinstance(r, RunEnd) for r in paused_trace.records)
        assert paused.run() == expected
        assert paused_trace.records == whole_trace.records


class TestAccountingIdentities:
    def test_allocation_integral_covers_work(self):
        """allocation x time >= work + overheads for every job."""
        jobs = [flat_job("A", 10, 1.0, 4), flat_job("B", 10, 1.0, 4)]
        result = SchedulingSystem(jobs, DYNAMIC, n_processors=4).run()
        for metrics in result.jobs.values():
            held = metrics.average_allocation * metrics.response_time
            used = (
                metrics.work
                + metrics.waste
                + metrics.switch_overhead_total
                + metrics.cache_penalty_total
            )
            assert held == pytest.approx(used, rel=0.02)

    def test_reallocation_interval_definition(self):
        jobs = [flat_job("A", 10, 1.0, 4)]
        result = SchedulingSystem(jobs, DYNAMIC, n_processors=4).run()
        m = result.jobs["A"]
        assert m.reallocation_interval == pytest.approx(
            m.response_time * m.average_allocation / m.n_reallocations
        )


class TestDisruptionEdgeCases:
    """Cancellation and failure at their nastiest instants."""

    def _collide(self, cancel_priority):
        """Cancel DOOMED at the exact instant of its arrival event."""
        jobs = [chain_job("DOOMED", 2, 0.5), flat_job("OTHER", 4, 0.5, 2)]
        tracer = Tracer()
        system = SchedulingSystem(
            jobs, DYNAMIC, n_processors=2,
            arrival_times=[1.0, 0.0], tracer=tracer,
        )
        system.sim.at(
            1.0,
            lambda: system.cancel_job(jobs[0]),
            priority=cancel_priority,
            label="cancel:DOOMED",
        )
        result = system.run()
        assert check_trace(tracer.records) == []
        assert result.cancelled == {"DOOMED": 1.0}
        assert "DOOMED" not in result.jobs
        assert "OTHER" in result.jobs
        return tracer.records

    def test_cancel_at_arrival_instant_before_arrival_fires(self):
        """Priority below the arrival's: the job must never enter at all."""
        records = self._collide(cancel_priority=5)
        assert not any(
            isinstance(r, JobArrival) and r.job == "DOOMED" for r in records
        )

    def test_cancel_at_arrival_instant_after_arrival_fires(self):
        """Priority above the arrival's: arrive, then cancel with zero work."""
        records = self._collide(cancel_priority=100)
        assert any(
            isinstance(r, JobArrival) and r.job == "DOOMED" for r in records
        )
        cancel = next(r for r in records if isinstance(r, JobCancelled))
        assert cancel.time == 1.0
        assert cancel.work_done == 0.0

    def test_failure_flushes_sole_footprint_copy(self):
        """The failed cpu holds the job's only cache residue: it is lost.

        On a one-processor machine the job can only wait out the outage;
        recovery re-dispatches it affine (it never ran anywhere else) but
        against a cold cache, so the full reload penalty is charged.
        """
        job = chain_job("J", 4, 0.5)
        tracer = Tracer()
        system = SchedulingSystem([job], DYN_AFF, n_processors=1, tracer=tracer)
        system.sim.at(0.6, lambda: system.fail_processor(0), priority=100)
        system.sim.at(0.9, lambda: system.recover_processor(0), priority=100)
        result = system.run()
        assert check_trace(tracer.records) == []
        assert "J" in result.jobs
        flush = next(r for r in tracer.records if isinstance(r, CacheFlush))
        assert flush.cpu == 0
        assert flush.lines > 0
        redispatch = next(
            r for r in tracer.records
            if isinstance(r, Dispatch) and r.time >= 0.9
        )
        assert redispatch.affine
        assert redispatch.penalty_s > 0
        # 2s of work stalled by a 0.3s outage
        assert result.makespan >= 2.3
