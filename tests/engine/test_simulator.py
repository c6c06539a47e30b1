"""Run-loop behavior of the discrete-event simulator."""

import pytest

from repro.engine.events import EventState
from repro.engine.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5, 4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_at_schedules_absolute(self):
        sim = Simulator()
        seen = []
        sim.at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestRunControl:
    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert sim.now == 5.0

    def test_run_until_then_continue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired[0] == 1
        assert 2 not in fired

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []
        assert len(sim.queue) == 0

    def test_cancel_after_fire_does_not_drop_live_events(self):
        """Regression: a late cancel of a fired event made the queue look
        empty early, ending the run at t=1.5 with a live t=2.0 event
        still queued (and the next cancel could underflow the count)."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(1.5, lambda: (fired.append(1.5), sim.cancel(handle)))
        sim.schedule(2.0, lambda: fired.append(2.0))
        sim.run()
        assert fired == [1.0, 1.5, 2.0]
        assert sim.now == 2.0
        assert len(sim.queue) == 0

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False
        assert handle.state is EventState.FIRED

    def test_stop_with_until_does_not_jump_clock(self):
        """A ``stop()`` with events still queued before ``until`` leaves
        the clock where it stopped: jumping it to ``until`` would make the
        next run() raise "clock cannot run backwards"."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1.0), sim.stop()))
        for t in (2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        end = sim.run(until=10.0)
        assert fired == [1.0]
        assert end == 1.0  # not jumped to until=10
        sim.run()  # must not raise ValueError
        assert fired == [1.0, 2.0, 3.0]

    def test_until_still_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 5.0

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestTraceHooks:
    def test_hook_sees_time_and_label(self):
        sim = Simulator()
        trace = []
        sim.add_trace_hook(lambda t, label: trace.append((t, label)))
        sim.schedule(1.0, lambda: None, label="first")
        sim.schedule(2.0, lambda: None, label="second")
        sim.run()
        assert trace == [(1.0, "first"), (2.0, "second")]
