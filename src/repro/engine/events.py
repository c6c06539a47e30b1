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
vice versa, so late ``cancel()`` calls on events that already ran are
harmless no-ops instead of corrupting the queue's live accounting.
"""

from __future__ import annotations

import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.queue import EventQueue


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


# The members as module globals: reading one through its class goes
# through the enum metaclass, several times slower on the event path.
_PENDING = EventState.PENDING
_FIRED = EventState.FIRED
_CANCELLED = EventState.CANCELLED


class Event:
    """A single scheduled occurrence, and the handle to cancel it.

    :meth:`~repro.engine.queue.EventQueue.push` creates the event and
    returns it.  Cancellation is *lazy*: a cancelled event stays in the
    heap and is skipped when it reaches the front, which keeps
    cancellation O(1) — the standard trick for binary-heap event queues.

    Attributes:
        time: absolute virtual time (seconds) at which the event fires.
        priority: intra-instant ordering; lower fires first.
        seq: queue-assigned sequence number; makes ordering total.
        action: zero-argument callable invoked when the event fires.
        label: human-readable tag used by trace hooks and tests.
        state: lifecycle state; ``pop`` moves it ``PENDING → FIRED`` and
            :meth:`cancel` ``PENDING → CANCELLED``.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "state", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: typing.Callable[[], None],
        label: str = "",
        queue: typing.Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.state = _PENDING
        self._queue = queue

    def cancel(self) -> bool:
        """Prevent the event from firing, if it has not fired already.

        Idempotent and safe in every state:

        * ``PENDING`` — transitions to ``CANCELLED`` and leaves the owning
          queue's live count one lower; returns True.
        * ``CANCELLED`` — no-op; returns False.
        * ``FIRED`` — no-op; returns False, so the live count can never
          underflow.
        """
        if self.state is not _PENDING:
            return False
        self.state = _CANCELLED
        if self._queue is not None:
            self._queue._live -= 1
        return True

    def __repr__(self) -> str:
        return f"Event(t={self.time:.6f}, {self.label!r}, {self.state.value})"
