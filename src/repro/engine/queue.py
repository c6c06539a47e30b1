"""A cancellable binary-heap event queue with deterministic total ordering."""

from __future__ import annotations

import heapq
import typing

from repro.engine.events import _CANCELLED, _FIRED, _PENDING, DEFAULT_PRIORITY, Event


#: A heap entry.  ``seq`` is unique, so ordering never reaches the
#: event: every heap comparison is a tuple comparison done in C.
_Entry = typing.Tuple[float, int, int, Event]


class EventQueue:
    """Priority queue of :class:`Event` ordered by ``(time, priority, seq)``.

    The queue assigns each pushed event a monotonically increasing sequence
    number so that events scheduled for the same instant and priority fire
    in scheduling order.  Heap entries are ``(time, priority, seq, event)``
    tuples.  Cancelled events are dropped lazily on pop.

    ``push`` creates events ``PENDING`` and returns them, ``pop`` marks
    them ``FIRED``, and :meth:`Event.cancel` marks them ``CANCELLED``
    and decrements the live count of the queue that created them, so
    ``len(queue)`` is exact by construction — there is no external
    notification protocol to get wrong.
    """

    def __init__(self) -> None:
        self._heap: typing.List[_Entry] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (pending) events still queued."""
        return self._live

    def push(
        self,
        time: float,
        action: typing.Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute ``time``; returns the event,
        whose :meth:`~Event.cancel` withdraws it."""
        if time != time:  # NaN guard: a NaN time would corrupt heap order
            raise ValueError("event time must not be NaN")
        seq = self._seq
        event = Event(time, priority, seq, action, label, self)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event, marking it ``FIRED``.

        Raises:
            IndexError: if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.state is _CANCELLED:
                continue
            event.state = _FIRED
            self._live -= 1
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> typing.Optional[float]:
        """Time of the earliest live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].state is _CANCELLED:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every queued event, cancelling pending ones.

        Marking survivors ``CANCELLED`` (rather than merely forgetting them)
        keeps every event a caller still holds truthful: it will never fire.
        So each dropped event also lets go of its action, which may close
        over whatever holds the event.
        """
        for entry in self._heap:
            event = entry[3]
            if event.state is _PENDING:
                event.state = _CANCELLED
            event.action = None  # type: ignore[assignment]
        self._heap.clear()
        self._live = 0
