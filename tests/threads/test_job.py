"""Job runtime state: demand reflection and worker selection."""

import pytest

from repro.machine.footprint import FootprintCurve
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job
from repro.threads.workers import WorkerState


def make_job(n_threads=4, max_workers=2, chain=False) -> Job:
    g = ThreadGraph("test")
    ids = [g.add_thread(1.0) for _ in range(n_threads)]
    if chain:
        for a, b in zip(ids, ids[1:]):
            g.add_dependency(a, b)
    return Job("J", g, FootprintCurve(100, 0.1), max_workers=max_workers)


class TestLifecycle:
    def test_start_populates_ready(self):
        job = make_job(4)
        job.start(0.0)
        assert len(job.ready) == 4

    def test_chain_starts_with_one_ready(self):
        job = make_job(4, chain=True)
        job.start(0.0)
        assert len(job.ready) == 1

    def test_response_time_requires_completion(self):
        job = make_job()
        job.start(1.0)
        with pytest.raises(RuntimeError):
            _ = job.response_time
        job.completion_time = 5.0
        assert job.response_time == pytest.approx(4.0)

    def test_finished_tracks_graph(self):
        job = make_job(2, max_workers=1)
        job.start(0.0)
        assert not job.finished
        job.graph.complete(job.take_ready_thread())
        job.graph.complete(job.take_ready_thread())
        assert job.finished

    def test_needs_at_least_one_worker(self):
        g = ThreadGraph()
        g.add_thread(1.0)
        with pytest.raises(ValueError):
            Job("J", g, FootprintCurve(100, 0.1), max_workers=0)


class TestDemand:
    def test_demand_capped_by_workers(self):
        job = make_job(10, max_workers=3)
        job.start(0.0)
        assert job.demand() == 3

    def test_demand_counts_ready_and_running(self):
        job = make_job(4, max_workers=8)
        job.start(0.0)
        worker = job.workers[0]
        worker.current_thread = job.take_ready_thread()
        worker.note_dispatch(0, 0.0)
        assert job.demand() == 4  # 3 ready + 1 running

    def test_demand_counts_suspended(self):
        job = make_job(1, max_workers=4)
        job.start(0.0)
        worker = job.workers[0]
        worker.current_thread = job.take_ready_thread()
        worker.note_dispatch(0, 0.0)
        worker.remaining_service = 0.5
        worker.note_departure(1.0, suspended=True)
        assert worker.state == WorkerState.SUSPENDED
        assert job.demand() == 1

    def test_additional_request(self):
        job = make_job(10, max_workers=8)
        job.start(0.0)
        assert job.additional_request(3) == 5
        assert job.additional_request(8) == 0
        assert job.additional_request(12) == 0


class TestWorkerSelection:
    def test_no_work_no_worker(self):
        job = make_job(0 + 1, max_workers=2)
        job.start(0.0)
        job.take_ready_thread()
        assert job.select_worker(0, prefer_affinity=False) is None

    def test_suspended_preferred_over_idle(self):
        job = make_job(5, max_workers=4)
        job.start(0.0)
        worker = job.workers[2]
        worker.current_thread = job.take_ready_thread()
        worker.note_dispatch(1, 0.0)
        worker.remaining_service = 0.5
        worker.note_departure(1.0, suspended=True)
        assert job.select_worker(0, prefer_affinity=False) is worker

    def test_affinity_preference_picks_matching_worker(self):
        job = make_job(8, max_workers=4)
        job.start(0.0)
        # Give workers distinct histories.
        for cpu, worker in enumerate(job.workers):
            worker.note_dispatch(cpu, 0.0)
            worker.note_departure(1.0, suspended=False)
        chosen = job.select_worker(2, prefer_affinity=True)
        assert chosen is job.workers[2]

    def test_without_affinity_takes_first_dispatchable(self):
        job = make_job(8, max_workers=4)
        job.start(0.0)
        for cpu, worker in enumerate(job.workers):
            worker.note_dispatch(cpu, 0.0)
            worker.note_departure(1.0, suspended=False)
        assert job.select_worker(2, prefer_affinity=False) is job.workers[0]

    def test_desired_processor_follows_critical_suspended_worker(self):
        job = make_job(6, max_workers=4)
        job.start(0.0)
        for cpu, remaining in ((3, 0.2), (5, 0.9)):
            worker = job.workers[cpu % 4]
            worker.current_thread = job.take_ready_thread()
            worker.note_dispatch(cpu, 0.0)
            worker.remaining_service = remaining
            worker.note_departure(1.0, suspended=True)
        assert job.desired_processor() == 5

    def test_desired_processor_none_for_fresh_job(self):
        job = make_job(4)
        job.start(0.0)
        assert job.desired_processor() is None


class TestMetrics:
    def test_affinity_percentage(self):
        job = make_job()
        job.n_reallocations = 10
        job.n_affine = 4
        assert job.affinity_percentage() == pytest.approx(40.0)

    def test_affinity_percentage_no_reallocations(self):
        assert make_job().affinity_percentage() == 0.0

    def test_average_allocation(self):
        job = make_job()
        job.start(0.0)
        job.completion_time = 10.0
        job.allocation_integral = 35.0
        assert job.average_allocation() == pytest.approx(3.5)

    def test_worker_by_key(self):
        job = make_job(max_workers=3)
        assert job.worker_by_key(("J", 1)) is job.workers[1]
        assert job.worker_by_key(("OTHER", 1)) is None
        assert job.worker_by_key(("J", 99)) is None
