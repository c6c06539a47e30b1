"""Processor and task histories."""

import pytest

from repro.core.history import ProcessorHistory
from repro.machine.footprint import FootprintCurve
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job

A, B, C, D = (("job", i) for i in range(4))


class TestBoundedHistory:
    def test_most_recent_first(self):
        h = ProcessorHistory(depth=3)
        h.record(A)
        h.record(B)
        assert list(h) == [B, A]
        assert h.last_task == B

    def test_depth_bounds_length(self):
        h = ProcessorHistory(depth=2)
        for task in (A, B, C, D):
            h.record(task)
        assert list(h) == [D, C]

    def test_duplicate_head_not_repeated(self):
        h = ProcessorHistory(depth=3)
        h.record(A)
        h.record(A)
        assert len(h) == 1

    def test_empty_history(self):
        h = ProcessorHistory()
        assert h.last_task is None
        assert A not in h

    def test_clear(self):
        h = ProcessorHistory()
        h.record(A)
        h.clear()
        assert len(h) == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ProcessorHistory(depth=0)


class TestPaperSemantics:
    def test_depth_one_remembers_only_last(self):
        """The paper uses T = P = 1."""
        h = ProcessorHistory(depth=1)
        h.record(("job", 0))
        h.record(("job", 1))
        assert h.last_task == ("job", 1)
        assert ("job", 0) not in h

    def test_task_affinity_check(self):
        """A task's history is its worker's ``processor_history``."""
        g = ThreadGraph()
        g.add_thread(1.0)
        worker = Job("J", g, FootprintCurve(100, 0.1), max_workers=1).workers[0]
        for t, cpu in enumerate((3, 7)):
            worker.note_dispatch(cpu, float(t))
            worker.note_departure(t + 0.5, suspended=False)
        assert worker.affinity_within(3, depth=2)
        assert worker.affinity_within(7, depth=2)
        assert not worker.affinity_within(3, depth=1)
        assert not worker.affinity_within(5, depth=2)
