"""Allocation timelines from the trace: ``AllocationChange`` records of a
scheduling system, rendered by ``render_gantt``."""

import pytest

from repro.core.policies import DYNAMIC, EQUIPARTITION
from repro.core.system import SchedulingSystem
from repro.obs import Tracer
from repro.obs.records import AllocationChange
from repro.reporting.timeline import render_gantt
from tests.core.helpers import flat_job, phased_job
from tests.reporting.test_timeline import cells, changes, run_end


def traced_run(jobs, policy, n_processors, **kwargs):
    tracer = Tracer()
    result = SchedulingSystem(
        jobs, policy, n_processors=n_processors, tracer=tracer, **kwargs
    ).run()
    return tracer.records, result


def ownership(records):
    """cpu -> [(start, stop, job)] intervals of positive length, the last
    closed at the final record's time."""
    end = records[-1].time
    per_cpu = {}
    for record in records:
        if isinstance(record, AllocationChange):
            per_cpu.setdefault(record.cpu, []).append((record.time, record.job))
    return {
        cpu: [
            (start, stop, job)
            for (start, job), (stop, _) in zip(events, events[1:] + [(end, None)])
            if stop > start
        ]
        for cpu, events in per_cpu.items()
    }


class TestSegments:
    def make_trace(self):
        records = changes((0.0, 0, "A"), (5.0, 0, None), (7.0, 0, "B"))
        return records + [run_end(10.0)]

    def test_segments_in_order(self):
        assert cells(render_gantt(self.make_trace(), width=10)) == "AAAAA..BBB"

    def test_job_names_in_first_seen_order(self):
        legend = render_gantt(self.make_trace()).splitlines()[-1]
        assert legend == "legend: A = A  B = B  . = free"

    def test_empty_trace_renders_placeholder(self):
        assert render_gantt([]) == "(empty trace)"

    def test_gantt_width_validated(self):
        with pytest.raises(ValueError):
            render_gantt(self.make_trace(), width=5)

    def test_gantt_blank_cells_before_first_event(self):
        """A processor whose first change is late renders leading blanks."""
        chart = render_gantt(changes((8.0, 0, "A")) + [run_end(10.0)], width=10)
        row = cells(chart)
        assert row.startswith(" ") and row.endswith("A")

    def test_zero_length_intervals_dropped(self):
        records = changes((1.0, 0, "A"), (1.0, 0, None), (1.0, 0, "B"))
        chart = render_gantt(records + [run_end(2.0)], width=10)
        assert cells(chart) == "     BBBBB"  # A and "free" lasted no time


class TestSystemIntegration:
    def test_trace_records_real_run(self):
        jobs = [flat_job("A", 8, 1.0, 4), flat_job("B", 8, 1.0, 4)]
        records, _ = traced_run(jobs, DYNAMIC, 4)
        assert sorted(ownership(records)) == [0, 1, 2, 3]
        owners = {r.job for r in records if isinstance(r, AllocationChange) and r.job}
        assert owners == {"A", "B"}
        assert records[-1].time > 0

    def test_gantt_shows_both_jobs(self):
        jobs = [flat_job("A", 8, 1.0, 4), flat_job("B", 8, 1.0, 4)]
        records, _ = traced_run(jobs, DYNAMIC, 4)
        chart = render_gantt(records, width=40)
        assert "A = A" in chart and "B = B" in chart
        assert "cpu  0" in chart

    def test_equipartition_bands_are_static(self):
        """Under Equipartition each processor has very few owners."""
        jobs = [phased_job("A", 4, 8, 0.2, 4), flat_job("B", 8, 2.0, 4)]
        records, _ = traced_run(jobs, EQUIPARTITION, 8)
        for intervals in ownership(records).values():
            owners = {job for _, _, job in intervals if job}
            assert len(owners) <= 2  # at most original owner + post-completion

    def test_dynamic_churns_more_than_equipartition(self):
        def segment_count(policy):
            jobs = [phased_job("A", 6, 8, 0.2, 4), flat_job("B", 8, 2.0, 4)]
            records, _ = traced_run(jobs, policy, 8, seed=1)
            return sum(len(i) for i in ownership(records).values())

        assert segment_count(DYNAMIC) > 2 * segment_count(EQUIPARTITION)

    def test_trace_allocation_matches_metrics(self):
        """Integrated ownership agrees with the system's accounting."""
        records, result = traced_run([flat_job("A", 8, 1.0, 4)], DYNAMIC, 4)
        total = sum(
            stop - start
            for intervals in ownership(records).values()
            for start, stop, job in intervals
            if job == "A"
        )
        expected = result.jobs["A"].average_allocation * result.jobs["A"].response_time
        assert total == pytest.approx(expected, rel=1e-6)
