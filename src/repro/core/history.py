"""Processor histories ([Squillante & Lazowska 89], Section 5.3).

"For a processor, its history is an ordered list of the last T tasks to
have run on it.  For a task, its history is an ordered list of the last P
processors on which it has run.  In the work that follows, we remember
only the last task or processor (T = P = 1)."

A task's history is :attr:`repro.threads.workers.WorkerTask.processor_history`.
Both support depths above the paper's 1 (``Policy.history_depth``); the
policies use depth 1 like the paper, and the generalization is exercised
by tests and the history ablation.
"""

from __future__ import annotations

import collections
import typing

#: A task's identity: (job name, worker index).
TaskKey = typing.Tuple[str, int]


class ProcessorHistory:
    """The last T task keys to have run on one processor, most recent first."""

    def __init__(self, depth: int = 1) -> None:
        if depth < 1:
            raise ValueError("history depth must be at least 1")
        self.depth = depth
        self._items: typing.Deque[TaskKey] = collections.deque(maxlen=depth)

    def record(self, item: TaskKey) -> None:
        """Push ``item`` as the most recent entry (deduplicating the head)."""
        if self._items and self._items[0] == item:
            return
        self._items.appendleft(item)

    @property
    def last_task(self) -> typing.Optional[TaskKey]:
        """The most recent task key (rule A.1's *last-task*), or None."""
        return self._items[0] if self._items else None

    def __contains__(self, item: TaskKey) -> bool:
        return item in self._items

    def __iter__(self) -> typing.Iterator[TaskKey]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def clear(self) -> None:
        """Forget everything."""
        self._items.clear()
