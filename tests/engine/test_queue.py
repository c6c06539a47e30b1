"""Event queue ordering, cancellation, and determinism."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.events import Event, EventState
from repro.engine.queue import EventQueue


def _noop():
    pass


class TestPushPop:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, _noop, label="c")
        q.push(1.0, _noop, label="a")
        q.push(2.0, _noop, label="b")
        assert [q.pop().label for _ in range(3)] == ["a", "b", "c"]

    def test_same_time_pops_in_priority_order(self):
        q = EventQueue()
        q.push(1.0, _noop, priority=200, label="late")
        q.push(1.0, _noop, priority=10, label="early")
        assert q.pop().label == "early"
        assert q.pop().label == "late"

    def test_same_time_same_priority_is_fifo(self):
        q = EventQueue()
        for i in range(10):
            q.push(5.0, _noop, label=str(i))
        assert [q.pop().label for _ in range(10)] == [str(i) for i in range(10)]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_len_counts_live_events(self):
        q = EventQueue()
        q.push(1.0, _noop)
        q.push(2.0, _noop)
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(float("nan"), _noop)


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        handle = q.push(1.0, _noop, label="cancelled")
        q.push(2.0, _noop, label="kept")
        handle.cancel()
        assert len(q) == 1
        assert q.pop().label == "kept"

    def test_cancel_is_idempotent_on_handle(self):
        q = EventQueue()
        handle = q.push(1.0, _noop)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert handle.state is EventState.CANCELLED
        assert len(q) == 0

    def test_cancel_after_fire_is_a_noop(self):
        """Regression: cancelling a fired event used to corrupt the count."""
        q = EventQueue()
        handle = q.push(1.0, _noop)
        q.push(2.0, _noop, label="still-live")
        fired = q.pop()
        assert fired.state is EventState.FIRED
        assert handle.cancel() is False
        assert handle.state is EventState.FIRED
        assert len(q) == 1  # the t=2.0 event must stay visible
        assert q.pop().label == "still-live"

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        handle = q.push(1.0, _noop)
        q.push(5.0, _noop)
        handle.cancel()
        assert q.peek_time() == 5.0

    def test_peek_time_empty_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_clear_empties_queue(self):
        q = EventQueue()
        q.push(1.0, _noop)
        q.push(2.0, _noop)
        q.clear()
        assert len(q) == 0
        assert q.peek_time() is None

    def test_clear_cancels_outstanding_handles(self):
        q = EventQueue()
        handle = q.push(1.0, _noop)
        q.clear()
        assert handle.state is EventState.CANCELLED
        assert handle.cancel() is False  # already cancelled; count stays 0
        assert len(q) == 0


class TestEventOrdering:
    def test_heap_orders_by_key_not_event(self):
        """Events define no order; the queue's (time, priority, seq) key does."""
        with pytest.raises(TypeError):
            Event(1.0, 100, 0, _noop) < Event(1.0, 100, 1, _noop)
        q = EventQueue()
        for label in "abc":
            q.push(1.0, _noop, priority=100, label=label)
        q.push(1.0, _noop, priority=50, label="first")
        assert [q.pop().label for _ in range(4)] == ["first", "a", "b", "c"]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_property_pop_order_is_sorted(items):
    """Popping always yields (time, priority) in non-decreasing order."""
    q = EventQueue()
    for time, priority in items:
        q.push(time, _noop, priority=priority)
    popped = [q.pop() for _ in range(len(items))]
    keys = [(e.time, e.priority) for e in popped]
    assert keys == sorted(keys)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=50), st.data())
def test_property_cancellation_preserves_rest(times, data):
    """Cancelling any subset never perturbs the order of survivors."""
    q = EventQueue()
    handles = [q.push(t, _noop, label=str(i)) for i, t in enumerate(times)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) - 1)
    )
    for index in to_cancel:
        handles[index].cancel()
    survivors = [i for i in range(len(times)) if i not in to_cancel]
    assert len(q) == len(survivors)
    expected = [str(i) for i in sorted(survivors, key=lambda i: (times[i], i))]
    assert [q.pop().label for _ in range(len(survivors))] == expected


def _pending_events(q: EventQueue) -> int:
    """Pending events counted by walking the heap: the live counter's referee."""
    return sum(1 for entry in q._heap if entry[3].state is EventState.PENDING)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.floats(min_value=0, max_value=1000, allow_nan=False)),
            st.tuples(st.just("pop"), st.just(0.0)),
            st.tuples(st.just("cancel"), st.just(0.0)),
            st.tuples(st.just("cancel_fired"), st.just(0.0)),
        ),
        max_size=200,
    ),
    st.data(),
)
def test_property_live_count_matches_pending(ops, data):
    """len(queue) always equals the number of PENDING events, whatever the
    interleaving of pushes, pops, live cancels and (no-op) stale cancels."""
    q = EventQueue()
    handles = []
    for op, time in ops:
        if op == "push":
            handles.append(q.push(time, _noop))
        elif op == "pop" and len(q):
            q.pop()
        elif op == "cancel" and handles:
            index = data.draw(st.integers(min_value=0, max_value=len(handles) - 1))
            handles[index].cancel()
        elif op == "cancel_fired":
            fired = [h for h in handles if h.state is EventState.FIRED]
            if fired:
                index = data.draw(st.integers(min_value=0, max_value=len(fired) - 1))
                assert fired[index].cancel() is False
        assert len(q) == _pending_events(q)
    assert len(q) == _pending_events(q)
