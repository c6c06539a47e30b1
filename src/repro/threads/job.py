"""A job: one application instance being scheduled.

The job owns its thread dependence graph, a fixed pool of worker tasks,
and a ready queue of user-level threads.  It exposes exactly the
information the paper's allocation protocol requires: the instantaneous
processor *demand* it reflects to the allocator through shared memory, and
(for affinity policies) the *desired processor* of rule A.2.
"""

from __future__ import annotations

import collections
import typing

from repro.machine.footprint import FootprintCurve
from repro.threads.data_affinity import DataAffinitySpec, effective_service, pick_thread
from repro.threads.graph import ThreadGraph
from repro.threads.workers import _IDLE, _SUSPENDED, WorkerTask


class Job:
    """Runtime state of one application instance."""

    def __init__(
        self,
        name: str,
        graph: ThreadGraph,
        curve: FootprintCurve,
        max_workers: int,
        data_affinity: typing.Optional[DataAffinitySpec] = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("a job needs at least one worker")
        self.name = name
        self.graph = graph
        self.curve = curve
        #: optional user-level thread affinity configuration (Section 9)
        self.data_affinity = data_affinity
        self.workers = [WorkerTask(self, i) for i in range(max_workers)]
        #: per-state worker counts, kept by WorkerTask's state changes
        self.n_running = 0
        self.n_suspended = 0
        #: processors owned (busy or held idle) and, as a bitmask over cpu
        #: ids, which ones: kept by SchedulingSystem._change_owner
        self.n_owned = 0
        self.owned_mask = 0
        #: owned processors running a worker: kept by SchedulingSystem._set_worker
        self.n_busy = 0
        self.ready: typing.Deque[int] = collections.deque()
        self.arrival_time = 0.0
        self.completion_time: typing.Optional[float] = None
        self.cancelled_time: typing.Optional[float] = None
        # Accounting accumulated by the scheduling system:
        self.work_done = 0.0        # useful processor-seconds
        self.waste = 0.0            # processor-seconds held while idle
        self.n_reallocations = 0    # worker dispatches onto processors
        self.n_affine = 0           # dispatches with affinity
        self.cache_penalty_total = 0.0
        self.switch_overhead_total = 0.0
        self.allocation_integral = 0.0  # processors x seconds held

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self, now: float) -> None:
        """Reset graph state and populate the initial ready queue."""
        self.graph.reset()
        self.ready = collections.deque(self.graph.initially_ready())
        self.arrival_time = now
        self.completion_time = None
        self.cancelled_time = None

    @property
    def finished(self) -> bool:
        """True once every thread of the graph has completed."""
        return self.graph.all_done

    @property
    def cancelled(self) -> bool:
        """True once the job has been cancelled (open-system disruption)."""
        return self.cancelled_time is not None

    @property
    def response_time(self) -> float:
        """Completion minus arrival; raises if the job has not finished."""
        if self.completion_time is None:
            raise RuntimeError(f"job {self.name!r} has not completed")
        return self.completion_time - self.arrival_time

    # ------------------------------------------------------------------ #
    # demand reflection (the shared-memory protocol of Section 5.2)

    def demand(self) -> int:
        """Processors the job can use right now, capped by its worker pool.

        Ready threads, plus suspended workers holding partial work, plus
        workers already running.
        """
        return min(len(self.workers), len(self.ready) + self.n_suspended + self.n_running)

    def additional_request(self, allocated: int) -> int:
        """Extra processors the job would accept given ``allocated`` now."""
        return max(0, self.demand() - allocated)

    # ------------------------------------------------------------------ #
    # worker selection

    def dispatchable_workers(self) -> typing.List[WorkerTask]:
        """Workers that could use a processor right now.

        Suspended workers always qualify (they hold a partial thread); idle
        workers qualify only while unclaimed ready threads exist.
        """
        if self.n_suspended:
            result = [w for w in self.workers if w._state is _SUSPENDED]
        else:
            result = []
        spare_threads = len(self.ready)
        if spare_threads:
            for worker in self.workers:
                if worker._state is _IDLE:
                    result.append(worker)
                    spare_threads -= 1
                    if not spare_threads:
                        break
        return result

    def worker_by_key(
        self, key: typing.Tuple[str, int]
    ) -> typing.Optional[WorkerTask]:
        """Find this job's worker with ``key``, or None."""
        if key[0] != self.name:
            return None
        index = key[1]
        if 0 <= index < len(self.workers):
            return self.workers[index]
        return None

    def select_worker(
        self, processor: int, prefer_affinity: bool, history_depth: int = 1
    ) -> typing.Optional[WorkerTask]:
        """Pick the worker to dispatch on ``processor``.

        Suspended workers come first (their partial threads gate progress).
        Under an affinity policy, a dispatchable worker that ran on this
        very processor within its last ``history_depth`` stints wins —
        most recent residence first.
        """
        candidates = self.dispatchable_workers()
        if not candidates:
            return None
        if prefer_affinity and history_depth == 1:
            for worker in candidates:
                history = worker.processor_history
                if history and history[0] == processor:
                    return worker
        elif prefer_affinity:
            for depth in range(1, history_depth + 1):
                for worker in candidates:
                    if worker.affinity_within(processor, depth):
                        return worker
        return candidates[0]

    def desired_processor(self) -> typing.Optional[int]:
        """Rule A.2: where the most progress-critical task last ran.

        The most critical task is the suspended worker with the most
        remaining service (it gates the job's completion); failing that,
        the last processor of any dispatchable worker.
        """
        best: typing.Optional[WorkerTask] = None
        for worker in self.workers:
            if worker._state is not _SUSPENDED:
                continue
            if worker.last_processor is None:
                continue
            if best is None or worker.remaining_service > best.remaining_service:
                best = worker
        if best is not None:
            return best.last_processor
        for worker in self.dispatchable_workers():
            if worker.last_processor is not None:
                return worker.last_processor
        return None

    # ------------------------------------------------------------------ #
    # thread queue

    def take_ready_thread(
        self, worker: typing.Optional[WorkerTask] = None
    ) -> typing.Optional[int]:
        """Pop the next ready thread id for ``worker``.

        FIFO unless the job has a user-level data-affinity spec, in which
        case the spec's dispatch rule applies (see
        :mod:`repro.threads.data_affinity`).
        """
        if worker is not None and self.data_affinity is not None:
            return pick_thread(self, worker, self.data_affinity)
        if self.ready:
            return self.ready.popleft()
        return None

    def thread_service_for(self, worker: WorkerTask, tid: int) -> float:
        """Effective service time of ``tid`` on ``worker`` (warm-data aware)."""
        return effective_service(self, worker, tid)

    # ------------------------------------------------------------------ #
    # derived metrics

    def affinity_percentage(self) -> float:
        """Percent of dispatches that landed on an affine processor."""
        if not self.n_reallocations:
            return 0.0
        return 100.0 * self.n_affine / self.n_reallocations

    def average_allocation(self) -> float:
        """Time-averaged processors held over the job's lifetime."""
        if self.completion_time is None or self.completion_time <= self.arrival_time:
            return 0.0
        return self.allocation_integral / (self.completion_time - self.arrival_time)

    def __repr__(self) -> str:
        return (
            f"Job({self.name!r}, threads={self.graph.n_threads}, "
            f"done={self.graph.n_completed})"
        )
