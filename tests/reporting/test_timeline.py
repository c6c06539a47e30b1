"""Gantt charts rendered from a trace's ``AllocationChange`` records."""

import pytest

from repro.obs.records import AllocationChange, JobArrival, RunEnd
from repro.reporting.timeline import render_gantt


def changes(*events):
    """``(time, cpu, job)`` triples as ``AllocationChange`` records."""
    return [
        AllocationChange(time=time, cpu=cpu, job=job, prev=None)
        for time, cpu, job in events
    ]


def run_end(time):
    return RunEnd(time=time, makespan=time, events_fired=0)


def cells(chart, row=0):
    """The cells of one processor's row."""
    return chart.splitlines()[row].split("|")[1]


class TestRenderGantt:
    def test_chart_ends_at_last_record(self):
        chart = render_gantt(changes((0.0, 0, "A")) + [run_end(10.0)], width=10)
        assert chart.splitlines() == [
            "cpu  0 |AAAAAAAAAA|",
            "        0s    10.0s",
            "legend: A = A  . = free",
        ]

    def test_legend_orders_jobs_by_cpu_then_event(self):
        # cpu 1 changes first, so its jobs (X then Z) come before cpu 0's Y,
        # although Y's change is earlier than Z's.
        records = changes((0.0, 1, "X"), (1.0, 0, "Y"), (2.0, 1, "Z"))
        chart = render_gantt(records + [run_end(4.0)], width=10)
        assert chart.splitlines()[-1] == "legend: A = X  B = Z  C = Y  . = free"
        assert cells(chart, 0) == "  CCCCCCCC"
        assert cells(chart, 1) == "AAAAABBBBB"

    def test_tie_goes_to_first_interval(self):
        records = changes((0.0, 0, "A"), (0.5, 0, "B"))
        chart = render_gantt(records + [run_end(10.0)], width=10)
        assert cells(chart) == "ABBBBBBBBB"

    @pytest.mark.parametrize("records", [
        [JobArrival(time=0.0, job="A"), run_end(1.0)],  # no ownership change
        changes((0.0, 0, "A")) + [run_end(0.0)],  # zero-length run
    ])
    def test_placeholder_without_a_timeline(self, records):
        assert render_gantt(records) == "(empty trace)"
