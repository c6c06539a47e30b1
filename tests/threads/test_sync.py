"""Barrier construction and critical-section inflation."""

import pytest

from repro.threads.graph import ThreadGraph
from repro.threads.sync import CriticalSectionModel, add_barrier


class TestAddBarrier:
    def test_barrier_waits_for_all(self):
        g = ThreadGraph()
        phase = [g.add_thread(1.0) for _ in range(3)]
        barrier = add_barrier(g, phase)
        nxt = g.add_thread(1.0)
        g.add_dependency(barrier, nxt)
        g.complete(phase[0])
        g.complete(phase[1])
        assert g.complete(phase[2]) == [barrier]
        assert g.complete(barrier) == [nxt]

    def test_barrier_has_zero_service_by_default(self):
        g = ThreadGraph()
        phase = [g.add_thread(1.0)]
        barrier = add_barrier(g, phase)
        assert g.service_times[barrier] == 0.0

    def test_barrier_phase_label_recorded(self):
        g = ThreadGraph()
        phase = [g.add_thread(1.0)]
        barrier = add_barrier(g, phase, phase="sync/step-3")
        assert g.phases[barrier] == "sync/step-3"

    def test_barrier_with_no_predecessors_is_immediately_ready(self):
        g = ThreadGraph()
        barrier = add_barrier(g, [])
        assert barrier in g.initially_ready()

    def test_nonzero_service_barrier_adds_work(self):
        g = ThreadGraph()
        phase = [g.add_thread(1.0) for _ in range(2)]
        add_barrier(g, phase, service_time=0.25)
        assert g.total_work() == pytest.approx(2.25)

    def test_barrier_drops_parallelism_to_one(self):
        """The paper: 'parallelism decreases briefly to one' at barriers."""
        g = ThreadGraph()
        first = [g.add_thread(1.0) for _ in range(4)]
        barrier = add_barrier(g, first, service_time=0.5)
        for _ in range(4):
            tid = g.add_thread(1.0)
            g.add_dependency(barrier, tid)
        profile = g.parallelism_profile(8)
        assert profile.time_at_level[1] == pytest.approx(0.5 / 2.5)


class TestCriticalSectionModel:
    def test_zero_fraction_no_inflation(self):
        model = CriticalSectionModel(0.0)
        assert model.inflated_service(1.0, 32) == pytest.approx(1.0)

    def test_single_thread_no_inflation(self):
        model = CriticalSectionModel(0.25)
        assert model.inflated_service(1.0, 1) == pytest.approx(1.0)

    def test_expected_wait_half_of_others(self):
        model = CriticalSectionModel(0.1)
        # 0.5 * 9 others * 0.1 * 2.0s = 0.9s extra
        assert model.inflated_service(2.0, 10) == pytest.approx(2.9)

    def test_inflation_grows_with_concurrency(self):
        model = CriticalSectionModel(0.05)
        assert model.inflated_service(1.0, 16) < model.inflated_service(1.0, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            CriticalSectionModel(1.0)
        with pytest.raises(ValueError):
            CriticalSectionModel(-0.1)
        model = CriticalSectionModel(0.1)
        with pytest.raises(ValueError):
            model.inflated_service(1.0, 0)
        with pytest.raises(ValueError):
            model.inflated_service(-1.0, 2)
