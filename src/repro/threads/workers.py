"""Worker tasks: the kernel-schedulable threads that acquire affinity.

Each job runs its user-level threads on a small, fixed pool of worker
tasks.  A worker is the unit the allocator dispatches onto processors, and
therefore the entity that develops cache affinity ("a task has affinity
for processors on which it has previously run").
"""

from __future__ import annotations

import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.job import Job

#: Processors a worker's history remembers: the deepest task history a
#: policy may consult (``Policy.history_depth``).
MAX_HISTORY_DEPTH = 8


class WorkerState(enum.Enum):
    """Lifecycle of a worker task."""

    #: not dispatched, holding no thread
    IDLE = "idle"
    #: executing a user-level thread on a processor
    RUNNING = "running"
    #: preempted mid-thread; holds partially-executed work
    SUSPENDED = "suspended"


# The members as module globals: reading one through its class goes
# through the enum metaclass, several times slower on the dispatch path.
_IDLE = WorkerState.IDLE
_RUNNING = WorkerState.RUNNING
_SUSPENDED = WorkerState.SUSPENDED


class WorkerTask:
    """One kernel thread of a job.

    The worker remembers the last processor it ran on (the paper's task
    history with P = 1) and, when suspended, the thread it was executing
    with the service time still remaining.

    ``job`` points back at the job that lists this worker, and
    ``completion_action`` at the system that runs it; a run that is over
    sets both to None (see ``SchedulingSystem._close``), and ``key`` and
    ``repr`` stay readable.
    """

    def __init__(self, job: "Job", index: int) -> None:
        self.job: typing.Optional["Job"] = job
        self.index = index
        #: stable hashable identity: (job name, worker index)
        self.key = (job.name, index)
        self._state = _IDLE
        self.processor: typing.Optional[int] = None
        self.last_processor: typing.Optional[int] = None
        #: most-recent-first window of processors this task has run on
        #: (the paper's task history; depth consulted is policy-defined)
        self.processor_history: typing.List[int] = []
        #: data group of the last user-level thread this worker executed
        #: (drives the user-level data-affinity layer)
        self.last_data_group: typing.Optional[int] = None
        #: most-recent-first window of data groups this worker touched
        self.recent_data_groups: typing.List[int] = []
        self.current_thread: typing.Optional[int] = None
        self.remaining_service = 0.0
        #: when the current stint on a processor began (for footprint build)
        self.started_at = 0.0
        #: when execution of the current thread segment began (for work accounting)
        self.segment_start = 0.0
        #: dispatch overhead (switch + cache reload) charged at segment start
        self.stint_overhead = 0.0
        #: breakdown of the charged overhead, for refunds on immediate preemption
        self.stint_switch_charged = 0.0
        self.stint_penalty_charged = 0.0
        #: the pending thread-completion event, owned by the system
        self.completion_handle: typing.Optional[object] = None
        #: the action of its thread-completion events on the current
        #: processor: set at dispatch, reused by every continuation there
        self.completion_action: typing.Optional[typing.Callable[[], None]] = None
        #: label of this worker's thread-completion events
        self.completion_label = f"complete:{job.name}#{index}"

    @property
    def state(self) -> WorkerState:
        """Lifecycle state; changed only by the methods below."""
        return self._state

    def _enter(self, state: WorkerState) -> None:
        """Move to ``state``, keeping the job's per-state worker counts."""
        job = self.job
        old = self._state
        if old is _RUNNING:
            job.n_running -= 1
        elif old is _SUSPENDED:
            job.n_suspended -= 1
        if state is _RUNNING:
            job.n_running += 1
        elif state is _SUSPENDED:
            job.n_suspended += 1
        self._state = state

    def affinity_within(self, processor: int, depth: int = 1) -> bool:
        """True if ``processor`` is among the last ``depth`` this task used."""
        if depth < 1:
            raise ValueError("depth must be at least 1")
        return processor in self.processor_history[:depth]

    def note_dispatch(self, processor: int, now: float) -> None:
        """Record a dispatch onto ``processor``."""
        self._enter(_RUNNING)
        self.processor = processor
        self.started_at = now
        self.segment_start = now

    def note_departure(self, now: float, suspended: bool) -> float:
        """Record leaving the processor; returns the stint duration.

        Args:
            now: current virtual time.
            suspended: True if the worker was preempted mid-thread (it keeps
                ``current_thread``/``remaining_service``); False if it left
                voluntarily with no thread in hand.
        """
        duration = max(0.0, now - self.started_at)
        self.last_processor = self.processor
        if self.processor is not None:
            if not self.processor_history or self.processor_history[0] != self.processor:
                self.processor_history.insert(0, self.processor)
                del self.processor_history[MAX_HISTORY_DEPTH:]
        self.processor = None
        self._enter(_SUSPENDED if suspended else _IDLE)
        if not suspended:
            self.current_thread = None
            self.remaining_service = 0.0
        return duration

    def hold_thread(self, tid: int, service: float) -> None:
        """Hand an idle worker thread ``tid`` before it is dispatched.

        The worker waits SUSPENDED, holding the whole thread, until a
        processor picks it up (the time-sharing run queue's entry step).
        """
        if self._state is not _IDLE:
            raise RuntimeError(f"worker {self.key} is {self._state.value}, not idle")
        self.current_thread = tid
        self.remaining_service = service
        self._enter(_SUSPENDED)

    def __repr__(self) -> str:
        return (
            f"WorkerTask({self.key[0]}#{self.index}, {self._state.value}, "
            f"cpu={self.processor}, last={self.last_processor})"
        )
