"""Worker task state machine and affinity accounting."""

import pytest

from repro.machine.footprint import FootprintCurve
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job
from repro.threads.workers import MAX_HISTORY_DEPTH, WorkerState, WorkerTask


def make_worker() -> WorkerTask:
    g = ThreadGraph()
    g.add_thread(1.0)
    job = Job("J", g, FootprintCurve(100, 0.1), max_workers=1)
    return job.workers[0]


class TestDispatchDeparture:
    def test_initial_state(self):
        w = make_worker()
        assert w.state == WorkerState.IDLE
        assert w.processor is None
        assert w.last_processor is None

    def test_first_dispatch_has_no_affinity(self):
        w = make_worker()
        assert not w.affinity_within(3)
        w.note_dispatch(3, 0.0)
        assert w.state == WorkerState.RUNNING
        assert w.processor == 3

    def test_redispatch_same_processor_has_affinity(self):
        w = make_worker()
        w.note_dispatch(3, 0.0)
        w.note_departure(1.0, suspended=False)
        assert w.affinity_within(3)

    def test_redispatch_elsewhere_has_no_affinity(self):
        w = make_worker()
        w.note_dispatch(3, 0.0)
        w.note_departure(1.0, suspended=False)
        assert not w.affinity_within(4)

    def test_departure_returns_stint_duration(self):
        w = make_worker()
        w.note_dispatch(0, 1.0)
        assert w.note_departure(3.5, suspended=False) == pytest.approx(2.5)

    def test_voluntary_departure_clears_thread(self):
        w = make_worker()
        w.current_thread = 0
        w.remaining_service = 0.7
        w.note_dispatch(0, 0.0)
        w.note_departure(1.0, suspended=False)
        assert w.state == WorkerState.IDLE
        assert w.current_thread is None
        assert w.remaining_service == 0.0

    def test_suspension_keeps_thread(self):
        w = make_worker()
        w.current_thread = 0
        w.remaining_service = 0.7
        w.note_dispatch(0, 0.0)
        w.note_departure(1.0, suspended=True)
        assert w.state == WorkerState.SUSPENDED
        assert w.current_thread == 0
        assert w.remaining_service == pytest.approx(0.7)

    def test_last_processor_updated_on_departure(self):
        w = make_worker()
        w.note_dispatch(5, 0.0)
        w.note_departure(1.0, suspended=False)
        assert w.last_processor == 5
        assert w.processor is None


class TestAffinityStats:
    def test_history_remembers_max_depth_processors(self):
        w = make_worker()
        for cpu in range(MAX_HISTORY_DEPTH + 2):
            w.note_dispatch(cpu, float(cpu))
            w.note_departure(cpu + 0.5, suspended=False)
        newest = MAX_HISTORY_DEPTH + 1
        assert w.processor_history == list(range(newest, 1, -1))
        assert w.affinity_within(2, depth=MAX_HISTORY_DEPTH)

    def test_key_is_stable(self):
        w = make_worker()
        assert w.key == ("J", 0)
