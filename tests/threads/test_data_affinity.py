"""The user-level thread data-affinity layer (Section 9 future work)."""

import pytest

from repro.core.policies import DYN_AFF
from repro.core.system import SchedulingSystem
from repro.machine.footprint import FootprintCurve
from repro.threads.data_affinity import DataAffinitySpec, effective_service, pick_thread
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job

CURVE = FootprintCurve(1000, 0.05)


def grouped_job(groups, spec=None, workers=2, service=1.0):
    """A flat job whose threads carry the given data group tags."""
    graph = ThreadGraph("G")
    for group in groups:
        graph.add_thread(service, data_group=group)
    return Job("G", graph, CURVE, max_workers=workers, data_affinity=spec)


class TestSpecValidation:
    def test_defaults(self):
        spec = DataAffinitySpec()
        assert spec.scheduler == "affine"
        assert 0 < spec.warm_discount < 1

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            DataAffinitySpec(warm_discount=1.0)
        with pytest.raises(ValueError):
            DataAffinitySpec(warm_discount=-0.1)

    def test_invalid_scheduler(self):
        with pytest.raises(ValueError):
            DataAffinitySpec(scheduler="random")

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DataAffinitySpec(search_window=0)


class TestPickThread:
    def test_fifo_without_spec(self):
        job = grouped_job([1, 2, 3])
        job.start(0.0)
        worker = job.workers[0]
        worker.last_data_group = 3
        assert job.take_ready_thread(worker) == 0  # FIFO, no spec

    def test_affine_prefers_matching_group(self):
        job = grouped_job([1, 2, 3], spec=DataAffinitySpec())
        job.start(0.0)
        worker = job.workers[0]
        worker.last_data_group = 3
        assert job.take_ready_thread(worker) == 2  # tid of group 3

    def test_affine_falls_back_to_fifo(self):
        job = grouped_job([1, 2, 3], spec=DataAffinitySpec())
        job.start(0.0)
        worker = job.workers[0]
        worker.last_data_group = 99
        assert job.take_ready_thread(worker) == 0

    def test_search_window_bounds_lookahead(self):
        job = grouped_job([1, 2, 3, 4], spec=DataAffinitySpec(search_window=2))
        job.start(0.0)
        worker = job.workers[0]
        worker.last_data_group = 4  # beyond the window
        assert job.take_ready_thread(worker) == 0

    def test_cold_worker_takes_fifo(self):
        job = grouped_job([1, 2], spec=DataAffinitySpec())
        job.start(0.0)
        assert job.take_ready_thread(job.workers[0]) == 0

    def test_empty_ready_returns_none(self):
        job = grouped_job([1], spec=DataAffinitySpec())
        job.start(0.0)
        job.take_ready_thread(job.workers[0])
        assert pick_thread(job, job.workers[0], job.data_affinity) is None


class TestEffectiveService:
    def test_warm_thread_discounted(self):
        spec = DataAffinitySpec(warm_discount=0.2)
        job = grouped_job([5, 5], spec=spec)
        worker = job.workers[0]
        first = effective_service(job, worker, 0)
        second = effective_service(job, worker, 1)
        assert first == pytest.approx(1.0)       # cold
        assert second == pytest.approx(0.8)      # warm: same group

    def test_group_change_is_cold(self):
        spec = DataAffinitySpec(warm_discount=0.2)
        job = grouped_job([5, 6], spec=spec)
        worker = job.workers[0]
        effective_service(job, worker, 0)
        assert effective_service(job, worker, 1) == pytest.approx(1.0)

    def test_untagged_threads_never_warm(self):
        spec = DataAffinitySpec(warm_discount=0.2)
        job = grouped_job([None, None], spec=spec)
        worker = job.workers[0]
        effective_service(job, worker, 0)
        assert effective_service(job, worker, 1) == pytest.approx(1.0)

    def test_no_spec_means_no_discount(self):
        job = grouped_job([5, 5])
        worker = job.workers[0]
        effective_service(job, worker, 0)
        assert effective_service(job, worker, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("tid", [-1, 2])
    def test_out_of_range_thread_rejected(self, tid):
        """A negative id must not wrap to the last thread."""
        job = grouped_job([5, 6])
        worker = job.workers[0]
        with pytest.raises(IndexError):
            effective_service(job, worker, tid)
        assert worker.last_data_group is None


class TestEndToEnd:
    def run_job(self, spec):
        # Interleaved groups with scrambled service times, so FIFO cannot
        # accidentally keep workers on their warm groups.
        graph = ThreadGraph("G")
        for index in range(32):
            graph.add_thread(0.4 + 0.03 * (index * 5 % 7), data_group=index % 4)
        job = Job("G", graph, CURVE, max_workers=4, data_affinity=spec)
        result = SchedulingSystem([job], DYN_AFF, n_processors=4, seed=0).run()
        return result.jobs["G"]

    def test_affine_scheduling_beats_fifo(self):
        """Grouped dispatch converts warm-data discounts into response time."""
        fifo = self.run_job(DataAffinitySpec(warm_discount=0.2, scheduler="fifo"))
        affine = self.run_job(DataAffinitySpec(warm_discount=0.2, scheduler="affine"))
        assert affine.response_time < fifo.response_time
        assert affine.work < fifo.work  # fewer effective processor-seconds

    def test_discount_bounded_by_theory(self):
        """Response time cannot improve by more than the discount itself."""
        fifo = self.run_job(DataAffinitySpec(warm_discount=0.2, scheduler="fifo"))
        affine = self.run_job(DataAffinitySpec(warm_discount=0.2, scheduler="affine"))
        assert affine.response_time > (1 - 0.2) * fifo.response_time - 1e-9


class TestWithoutSpec:
    """A job without a spec skips the warm-group window, not the group."""

    def test_service_is_the_base_time_and_sets_last_data_group(self):
        job = grouped_job([5, 6], service=2.0)
        worker = job.workers[0]
        assert job.thread_service_for(worker, 1) == 2.0
        assert worker.last_data_group == 6
        assert job.thread_service_for(worker, 0) == 2.0
        assert worker.last_data_group == 5

    def test_negative_thread_rejected(self):
        job = grouped_job([5, 6])
        with pytest.raises(IndexError):
            job.thread_service_for(job.workers[0], -1)

    def test_run_sets_last_data_group_of_the_last_thread(self):
        """One worker runs every thread FIFO, continuing on its processor."""
        job = grouped_job([7, 8, 9], workers=1)
        result = SchedulingSystem([job], DYN_AFF, n_processors=2, seed=0).run()
        assert result.jobs["G"].work == pytest.approx(3.0)
        assert job.workers[0].last_data_group == 9
