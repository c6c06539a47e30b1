"""A quantum-driven time-sharing scheduler: the related-work baseline.

Section 8 of the paper reconciles its "affinity barely matters" result
with earlier work ([Squillante & Lazowska 89], [Mogul & Borg 91]) that
found large affinity effects: those studies examined *time sharing*
policies, which rotate processors among jobs on quantum expiry.  Time
sharing maximizes the damage of multiprogramming — reallocation is
frequent and involuntary, tasks are interrupted mid-computation (so the
data they need across the switch is large), and jobs continually
overwrite each other's cache contexts.

This module implements that baseline so the contrast can be measured
rather than argued: a round-robin scheduler with a DYNIX-style quantum,
in a plain and an affinity-aware variant.  The benchmark suite shows that
affinity scheduling helps markedly here while remaining irrelevant under
the space-sharing policies — the paper's explanation, reproduced.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.core.system import JobMetrics, SystemResult
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.machine.footprint import FootprintModel
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.threads.job import Job
from repro.threads.workers import WorkerState, WorkerTask

#: DYNIX used a 100 ms quantum (paper, footnote 2).
DYNIX_QUANTUM_S = 0.100


@dataclasses.dataclass(frozen=True)
class TimeSharingPolicy:
    """Configuration of the time-sharing baseline."""

    name: str
    quantum_s: float = DYNIX_QUANTUM_S
    #: prefer dispatching the queued task that last ran on the processor
    use_affinity: bool = False
    #: how deep into the run queue the affinity search may look
    affinity_search_depth: int = 8
    #: a queued task skipped this many times must be dispatched next
    #: (aging — without it, affinity search starves tasks whose affine
    #: processor never comes up, per [Squillante & Lazowska 89])
    max_skips: int = 4

    def __post_init__(self) -> None:
        if self.quantum_s <= 0:
            raise ValueError("quantum must be positive")
        if self.affinity_search_depth < 1:
            raise ValueError("affinity_search_depth must be at least 1")
        if self.max_skips < 1:
            raise ValueError("max_skips must be at least 1")


TIME_SHARING = TimeSharingPolicy(name="TimeSharing")
TIME_SHARING_AFFINITY = TimeSharingPolicy(name="TimeSharing-Aff", use_affinity=True)


class TimeSharingSystem:
    """Round-robin quantum scheduling of jobs' worker tasks.

    Workers enter a global FIFO run queue.  Each processor runs one worker
    at a time; on quantum expiry the worker is preempted and requeued at
    the tail (an *involuntary* switch), and on running out of work it
    leaves the queue (a *voluntary* one).  Dispatches pay the kernel
    switch path plus the footprint model's cache reload penalty, exactly
    like the space-sharing system, so results are directly comparable.
    """

    def __init__(
        self,
        jobs: typing.Sequence[Job],
        policy: TimeSharingPolicy = TIME_SHARING,
        machine: MachineSpec = SEQUENT_SYMMETRY,
        n_processors: int = 16,
        seed: int = 0,
        rng: typing.Optional[RngRegistry] = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.sim = Simulator(rng=rng, seed=seed)
        self.policy = policy
        self.machine = machine
        self.jobs = list(jobs)
        self.footprint = FootprintModel(machine)
        self.n_processors = n_processors
        self.run_queue: typing.Deque[WorkerTask] = collections.deque()
        self._on_cpu: typing.List[typing.Optional[WorkerTask]] = [None] * n_processors
        self._quantum_handles: typing.List[typing.Optional[object]] = [None] * n_processors
        self._alloc_mark: typing.Dict[str, float] = {}
        self._alloc_count: typing.Dict[str, int] = {}
        self._skips: typing.Dict[typing.Tuple[str, int], int] = {}
        self._finished = 0
        self.involuntary_switches = 0
        self.voluntary_switches = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    # ------------------------------------------------------------------ #

    def run(self) -> SystemResult:
        """Execute all jobs to completion."""
        self.sim.at(0.0, self._start, label="start")
        self.sim.run()
        if self._finished != len(self.jobs):
            unfinished = [j.name for j in self.jobs if not j.finished]
            raise RuntimeError(f"time-sharing run stalled: {unfinished}")
        return SystemResult(
            policy=self.policy.name,
            n_processors=self.n_processors,
            seed=self.sim.rng.master_seed,
            makespan=self.now,
            jobs={job.name: JobMetrics.of(job) for job in self.jobs},
        )

    def _start(self) -> None:
        for job in self.jobs:
            job.start(self.now)
            self._alloc_mark[job.name] = self.now
            self._alloc_count[job.name] = 0
            self._enqueue_ready_workers(job)
        for cpu in range(self.n_processors):
            self._dispatch_next(cpu)

    # ------------------------------------------------------------------ #
    # queue management

    def _enqueue_ready_workers(self, job: Job) -> None:
        """Put workers behind every claimable unit of work on the queue."""
        for worker in job.dispatchable_workers():
            if worker in self.run_queue:
                continue
            if worker.state == WorkerState.IDLE:
                tid = job.take_ready_thread()
                if tid is None:
                    continue
                worker.hold_thread(tid, job.graph.service_times[tid])
            self.run_queue.append(worker)

    def _pick_worker(self, cpu: int) -> typing.Optional[WorkerTask]:
        if not self.run_queue:
            return None
        if self.policy.use_affinity:
            head = self.run_queue[0]
            if self._skips.get(head.key, 0) < self.policy.max_skips:
                depth = min(self.policy.affinity_search_depth, len(self.run_queue))
                for index in range(depth):
                    if self.run_queue[index].last_processor == cpu:
                        worker = self.run_queue[index]
                        del self.run_queue[index]
                        self._skips.pop(worker.key, None)
                        for skipped in list(self.run_queue)[:index]:
                            self._skips[skipped.key] = (
                                self._skips.get(skipped.key, 0) + 1
                            )
                        return worker
        worker = self.run_queue.popleft()
        self._skips.pop(worker.key, None)
        return worker

    def _wake_idle_processors(self) -> None:
        """Dispatch queued workers onto every idle processor."""
        for cpu in range(self.n_processors):
            if not self.run_queue:
                return
            if self._on_cpu[cpu] is None:
                self._dispatch_next(cpu)

    # ------------------------------------------------------------------ #
    # dispatch / preempt

    def _touch_alloc(self, job: Job) -> None:
        mark = self._alloc_mark[job.name]
        job.allocation_integral += self._alloc_count[job.name] * (self.now - mark)
        self._alloc_mark[job.name] = self.now

    def _dispatch_next(self, cpu: int) -> None:
        worker = self._pick_worker(cpu)
        if worker is None:
            return
        job = worker.job
        affine = worker.note_dispatch(cpu, self.now)
        penalty, _ = self.footprint.reload_penalty(worker.key, cpu)
        overhead = self.machine.context_switch_s + penalty
        job.n_reallocations += 1
        if affine:
            job.n_affine += 1
        job.cache_penalty_total += penalty
        job.switch_overhead_total += self.machine.context_switch_s
        worker.stint_overhead = overhead
        self._on_cpu[cpu] = worker
        self._touch_alloc(job)
        self._alloc_count[job.name] += 1
        run_for = min(self.policy.quantum_s, overhead + worker.remaining_service)
        if run_for >= overhead + worker.remaining_service:
            worker.completion_handle = self.sim.schedule(
                overhead + worker.remaining_service,
                lambda: self._on_complete(cpu),
                label=f"ts-complete:{job.name}#{worker.index}",
            )
        else:
            self._quantum_handles[cpu] = self.sim.schedule(
                self.policy.quantum_s,
                lambda: self._on_quantum(cpu),
                label=f"ts-quantum:{cpu}",
            )

    def _depart(self, cpu: int, suspended: bool) -> WorkerTask:
        worker = self._on_cpu[cpu]
        assert worker is not None
        job = worker.job
        duration = worker.note_departure(self.now, suspended=suspended)
        self.footprint.note_run(worker.key, cpu, duration, job.curve)
        self._on_cpu[cpu] = None
        self._touch_alloc(job)
        self._alloc_count[job.name] -= 1
        return worker

    def _on_quantum(self, cpu: int) -> None:
        """Involuntary switch: preempt, requeue at the tail."""
        worker = self._on_cpu[cpu]
        assert worker is not None
        job = worker.job
        self._quantum_handles[cpu] = None
        elapsed = self.now - worker.segment_start
        useful = min(
            max(0.0, elapsed - worker.stint_overhead), worker.remaining_service
        )
        job.work_done += useful
        worker.remaining_service -= useful
        self._depart(cpu, suspended=True)
        self.involuntary_switches += 1
        self.run_queue.append(worker)
        self._dispatch_next(cpu)

    def _on_complete(self, cpu: int) -> None:
        """A thread finished within its quantum."""
        worker = self._on_cpu[cpu]
        assert worker is not None
        job = worker.job
        worker.completion_handle = None
        job.work_done += worker.remaining_service
        tid = worker.current_thread
        worker.current_thread = None
        worker.remaining_service = 0.0
        assert tid is not None
        job.on_thread_complete(tid)

        if job.finished:
            self._depart(cpu, suspended=False)
            job.completion_time = self.now
            self._finished += 1
            if self._finished == len(self.jobs):
                self.sim.stop()
                return
            self._dispatch_next(cpu)
            self._wake_idle_processors()
            return

        next_tid = job.take_ready_thread()
        if next_tid is not None and not self.run_queue:
            # Nothing else wants the processor: run on (fresh quantum).
            worker.current_thread = next_tid
            worker.remaining_service = job.graph.service_times[next_tid]
            worker.segment_start = self.now
            worker.stint_overhead = 0.0
            run = worker.remaining_service
            if run <= self.policy.quantum_s:
                worker.completion_handle = self.sim.schedule(
                    run, lambda: self._on_complete(cpu)
                )
            else:
                self._quantum_handles[cpu] = self.sim.schedule(
                    self.policy.quantum_s, lambda: self._on_quantum(cpu)
                )
            # This completion may have readied more threads than this
            # worker can absorb: offer them to idle processors.
            self._enqueue_ready_workers(job)
            self._wake_idle_processors()
            return

        # Voluntary switch: yield the processor at a natural boundary.
        self.voluntary_switches += 1
        if next_tid is not None:
            worker.current_thread = next_tid
            worker.remaining_service = job.graph.service_times[next_tid]
            self._depart(cpu, suspended=True)
            self.run_queue.append(worker)
        else:
            self._depart(cpu, suspended=False)
        self._enqueue_ready_workers(job)
        self._dispatch_next(cpu)
        self._wake_idle_processors()
