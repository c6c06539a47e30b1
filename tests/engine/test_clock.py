"""Virtual clock invariants: ``Simulator.now`` and how the run loop moves it."""

import pytest

from repro.engine.simulator import Simulator


def _noop():
    pass


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_run_until_sets_the_start_of_the_next_run(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [6.0]

    def test_advance_moves_forward(self):
        sim = Simulator()
        sim.at(3.5, _noop)
        sim.run()
        assert sim.now == 3.5

    def test_advance_to_same_time_allowed(self):
        sim = Simulator()
        seen = []
        sim.at(2.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]
        assert sim.now == 2.0

    def test_advance_backwards_raises(self):
        sim = Simulator()
        sim.at(10.0, lambda: sim.queue.push(9.999, _noop))
        with pytest.raises(ValueError, match="backwards"):
            sim.run()
        assert sim.now == 10.0

    def test_until_before_now_raises(self):
        sim = Simulator()
        sim.at(10.0, _noop)
        sim.at(20.0, _noop)
        sim.run(until=10.0)
        with pytest.raises(ValueError, match="backwards"):
            sim.run(until=9.0)
        assert sim.now == 10.0

    def test_repr_contains_time(self):
        sim = Simulator()
        sim.run(until=3.5)
        assert "3.5" in repr(sim)
