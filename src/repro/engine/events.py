"""Event records for the discrete-event simulator.

Events are ordered by ``(time, priority, seq)``.  ``priority`` breaks ties
between events scheduled for the same instant (smaller runs first), and
``seq`` — a monotonically increasing sequence number assigned by the queue —
makes the ordering total and therefore deterministic: two runs with the same
seed schedule and pop events in exactly the same order.

Every event moves through an explicit lifecycle::

    PENDING ──pop──▶ FIRED
       │
       └──cancel──▶ CANCELLED

The transitions are one-way: a fired event can never become cancelled and
vice versa, so late ``cancel()`` calls on handles whose event already ran
are harmless no-ops instead of corrupting the queue's live accounting.
"""

from __future__ import annotations

import dataclasses
import enum
import typing


#: Default tie-break priority for events that do not care about intra-instant
#: ordering.  Policies that must observe a consistent state (e.g. the
#: allocator reacting *after* all thread completions at an instant) use
#: larger values.
DEFAULT_PRIORITY = 100


class EventState(enum.Enum):
    """Lifecycle state of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


@dataclasses.dataclass
class Event:
    """A single scheduled occurrence.

    Attributes:
        time: absolute virtual time (seconds) at which the event fires.
        priority: intra-instant ordering; lower fires first.
        seq: queue-assigned sequence number; makes ordering total.
        action: zero-argument callable invoked when the event fires.
        label: human-readable tag used by trace hooks and tests.
        state: lifecycle state; only the owning :class:`~repro.engine.queue.
            EventQueue` transitions it (``PENDING → FIRED`` on pop,
            ``PENDING → CANCELLED`` on cancellation).
    """

    time: float
    priority: int
    seq: int
    action: typing.Callable[[], None]
    label: str = ""
    state: EventState = EventState.PENDING

    @property
    def pending(self) -> bool:
        """True while the event is queued and may still fire."""
        return self.state is EventState.PENDING

    @property
    def fired(self) -> bool:
        """True once the event has been popped for execution."""
        return self.state is EventState.FIRED

    @property
    def cancelled(self) -> bool:
        """True once the event has been cancelled (and will never fire)."""
        return self.state is EventState.CANCELLED


class EventHandle:
    """Opaque handle returned when scheduling, usable to cancel the event.

    Cancellation is *lazy*: the event stays in the heap but is skipped when
    it reaches the front.  This keeps cancellation O(1) and is the standard
    trick for binary-heap event queues.  The handle routes cancellation
    through the queue that owns the event, so the queue's live count stays
    exact without callers having to notify it separately.
    """

    def __init__(self, event: Event, canceller: typing.Callable[[Event], bool]) -> None:
        self._event = event
        self._canceller = canceller

    @property
    def time(self) -> float:
        """Absolute virtual time the event is scheduled for."""
        return self._event.time

    @property
    def label(self) -> str:
        """The label the event was scheduled with."""
        return self._event.label

    @property
    def state(self) -> EventState:
        """Current lifecycle state of the underlying event."""
        return self._event.state

    @property
    def pending(self) -> bool:
        """True while the event is queued and may still fire."""
        return self._event.pending

    @property
    def fired(self) -> bool:
        """True once the event has been executed."""
        return self._event.fired

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` succeeded before the event fired."""
        return self._event.cancelled

    def cancel(self) -> bool:
        """Prevent the event from firing, if it has not fired already.

        Idempotent and safe in every state:

        * ``PENDING`` — transitions to ``CANCELLED``; returns True.
        * ``CANCELLED`` — no-op; returns False.
        * ``FIRED`` — no-op; returns False.  (Before the lifecycle state
          machine, cancelling a fired event silently corrupted the queue's
          live count.)
        """
        return self._canceller(self._event)

    def __repr__(self) -> str:
        return (
            f"EventHandle(t={self._event.time:.6f}, {self._event.label!r}, "
            f"{self._event.state.value})"
        )
