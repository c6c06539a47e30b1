"""The discrete-event scheduling system: jobs x policy x machine.

This is the experimental testbed of Sections 5-6 in simulation form.  It
executes a set of jobs (thread dependence graphs run by worker tasks)
under one allocation policy on a machine model, charging every processor
reallocation its kernel path length plus the cache reload penalty from the
footprint model, and accounting the quantities the paper's response time
model needs: work, waste, #reallocations, %affinity, and average
allocation per job.

Cost conventions (mirroring Section 2):

* a *dispatch* of a worker task onto a processor costs the 750 us context
  switch path plus the footprint model's cache reload penalty, and counts
  as one reallocation experienced by the job;
* a worker continuing into the next user-level thread on the same
  processor costs nothing (user-level threading is the cheap fine-grained
  parallelism the applications are built on);
* a worker resuming on a processor its job *held* throughout, where it
  was also the last task to run, costs nothing — this is Equipartition's
  "perfect affinity" and Dyn-Aff-Delay's penalty-free work pickup;
* a processor held by a job with nothing to run accrues *waste*.

Under time sharing (Section 8) a processor belongs to a job only while
one of the job's workers runs there, and a stint ends after at most one
quantum: the worker is preempted to the tail of the allocator's run
queue (an involuntary switch).  At a thread boundary a worker continues
only while the run queue is empty; otherwise it yields, keeping its next
thread (a voluntary switch).  For the space-sharing policies the run
queue stays empty and the quantum is infinite.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from repro.core.allocator import Allocator, ProcessorRecord
from repro.core.policies.base import Policy
from repro.core.policies.timesharing import DYNIX_QUANTUM_S
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.obs.records import (
    AllocationChange,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    JobArrival,
    JobCancelled,
    JobDeparture,
    RunConfig,
    RunEnd,
    Undispatch,
)
from repro.obs.tracer import Tracer
from repro.machine.footprint import FootprintModel
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.threads.job import Job
from repro.threads.workers import WorkerTask

#: Event priority for job arrivals: before anything else at that instant.
_ARRIVAL_PRIORITY = 10


@dataclasses.dataclass(frozen=True)
class JobMetrics:
    """Per-job outcome of one simulated run."""

    name: str
    response_time: float
    work: float
    waste: float
    n_reallocations: int
    pct_affinity: float
    cache_penalty_total: float
    switch_overhead_total: float
    average_allocation: float

    @classmethod
    def of(cls, job: Job) -> "JobMetrics":
        """The metrics of a finished job."""
        return cls(
            name=job.name,
            response_time=job.response_time,
            work=job.work_done,
            waste=job.waste,
            n_reallocations=job.n_reallocations,
            pct_affinity=job.affinity_percentage(),
            cache_penalty_total=job.cache_penalty_total,
            switch_overhead_total=job.switch_overhead_total,
            average_allocation=job.average_allocation(),
        )

    @property
    def app(self) -> str:
        """Application name (job name without the instance suffix)."""
        return self.name.split("-")[0]

    @property
    def reallocation_interval(self) -> float:
        """Mean seconds a processor runs between reallocations (Table 3 row 3)."""
        if self.n_reallocations == 0:
            return float("inf")
        return self.response_time * self.average_allocation / self.n_reallocations


@dataclasses.dataclass(frozen=True)
class SystemResult:
    """Outcome of one simulated workload run."""

    policy: str
    n_processors: int
    seed: int
    makespan: float
    jobs: typing.Dict[str, JobMetrics]
    #: job name -> cancellation timestamp (open-system disruptions only;
    #: cancelled jobs never appear in ``jobs``)
    cancelled: typing.Dict[str, float] = dataclasses.field(default_factory=dict)

    def mean_response_time(self) -> float:
        """Average job response time, the paper's primary metric."""
        if not self.jobs:
            return 0.0
        return sum(m.response_time for m in self.jobs.values()) / len(self.jobs)

    def job(self, name: str) -> JobMetrics:
        """Metrics for one job by name."""
        return self.jobs[name]


class SchedulingSystem:
    """Runs one workload mix under one policy to completion."""

    def __init__(
        self,
        jobs: typing.Sequence[Job],
        policy: Policy,
        machine: MachineSpec = SEQUENT_SYMMETRY,
        n_processors: int = 16,
        seed: int = 0,
        rng: typing.Optional[RngRegistry] = None,
        arrival_times: typing.Optional[typing.Sequence[float]] = None,
        footprint_model: typing.Optional[object] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        if n_processors > machine.n_processors:
            raise ValueError(
                f"machine {machine.name!r} has only {machine.n_processors} processors"
            )
        self.sim = Simulator(rng=rng, seed=seed)
        self.machine = machine
        self.policy = policy
        self.jobs = list(jobs)
        self.seed = seed
        # The cache-pricing oracle: the analytic footprint model by
        # default, or any object with the same note_run/reload_penalty
        # surface (e.g. machine.cache_oracle.SimulatedCacheFootprint).
        self.footprint = (
            footprint_model if footprint_model is not None else FootprintModel(machine)
        )
        self.allocator = Allocator(policy, n_processors, self)
        #: the allocator's time-sharing run queue, read per thread completion
        self.run_queue = self.allocator.run_queue
        #: longest stint before a preemption (time sharing only)
        self.quantum_s = DYNIX_QUANTUM_S if policy.is_time_sharing else math.inf
        self.rng = self.sim.rng.stream("allocator")
        self._arrivals = (
            list(arrival_times) if arrival_times is not None else [0.0] * len(jobs)
        )
        if len(self._arrivals) != len(self.jobs):
            raise ValueError("arrival_times must match jobs")
        self._alloc_mark: typing.Dict[str, float] = {}
        self._arrival_handles: typing.Dict[str, object] = {}
        self._finished_jobs = 0
        #: set by the first run() call, which schedules the arrivals
        self._started = False
        #: optional structured tracer (see repro.obs), the run's one
        #: observer: metrics are folded from its records after the run.
        #: None keeps every emission site at one attribute load and branch.
        self.tracer = tracer
        self.sim.attach_tracer(tracer)
        #: rules D.1-D.3 for a job with new work; equipartition has none
        self._new_work: typing.Optional[typing.Callable[[Job], None]] = (
            None if policy.is_equipartition else self.allocator.new_work
        )

    # ------------------------------------------------------------------ #
    # public API

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def run(self, until: typing.Optional[float] = None) -> SystemResult:
        """Execute the workload to completion and return per-job metrics.

        A run that is over (every job finished or cancelled, or ``run``
        raised) ends in :meth:`_close`, so its objects are freed by
        reference count.  A run paused at ``until`` with jobs outstanding
        keeps its state, to be inspected or driven further by another
        ``run`` call; the paused and resumed run emits the same records
        and returns the same result as one uninterrupted run.
        """
        if self.allocator.system is None:
            raise RuntimeError("this run is over; build a new SchedulingSystem")
        try:
            result = self._run(until)
        except BaseException:
            self._close()
            raise
        if self._finished_jobs == len(self.jobs):
            self._close()
        return result

    def _close(self) -> None:
        """Cut the five back-edges that would leave the run in cycles.

        ``Allocator.system`` points back at the system; each
        ``WorkerTask.job`` points at the job that lists the worker; each
        ``WorkerTask.completion_action`` closes over the system and the
        worker; ``_arrival_handles`` keeps fired events whose actions
        close over the system; and every event left in ``sim.queue``
        (cancelled ones included) points back at the queue through
        ``_queue`` and at the system through its action.  Results, job,
        worker and processor fields, ``repr`` and ``WorkerTask.key``
        stay readable.
        """
        self.allocator.system = None
        for job in self.jobs:
            for worker in job.workers:
                worker.job = None
                worker.completion_action = None
        self._arrival_handles.clear()
        self.sim.queue.clear()

    def _run(self, until: typing.Optional[float]) -> SystemResult:
        tr = self.tracer
        if not self._started:
            self._start()
        self.sim.run(until=until)
        unfinished = [
            job.name for job in self.jobs if not job.finished and not job.cancelled
        ]
        if tr is not None and (until is None or not unfinished):
            tr.emit(
                RunEnd(
                    time=self.sim.now,
                    makespan=self.sim.now,
                    events_fired=self.sim.events_fired,
                )
            )
        if unfinished and until is None:
            raise RuntimeError(
                f"simulation stalled with unfinished jobs: {unfinished}"
            )
        metrics = {job.name: JobMetrics.of(job) for job in self.jobs if job.finished}
        return SystemResult(
            policy=self.policy.name,
            n_processors=len(self.allocator.procs),
            seed=self.seed,
            makespan=self.sim.now,
            jobs=metrics,
            cancelled={
                job.name: job.cancelled_time
                for job in self.jobs
                if job.cancelled_time is not None
            },
        )

    def _start(self) -> None:
        """Emit the run's configuration and schedule every arrival."""
        self._started = True
        tr = self.tracer
        if tr is not None:
            tr.emit(
                RunConfig(
                    time=self.sim.now,
                    policy=self.policy.name,
                    n_processors=len(self.allocator.procs),
                    seed=self.seed,
                    jobs=tuple(job.name for job in self.jobs),
                    machine=self.machine.name,
                    cache_lines=self.machine.cache_lines,
                    miss_time_s=self.machine.miss_time_s,
                    context_switch_s=self.machine.context_switch_s,
                    respect_priority=self.policy.respect_priority,
                    use_affinity=self.policy.use_affinity,
                )
            )
        for job, arrival in zip(self.jobs, self._arrivals):
            if job.cancelled:
                continue  # cancelled before the run started
            self._arrival_handles[job.name] = self.sim.at(
                arrival,
                lambda j=job: self._arrive(j),
                priority=_ARRIVAL_PRIORITY,
                label=f"arrive:{job.name}",
            )

    # ------------------------------------------------------------------ #
    # arrival / completion

    def _arrive(self, job: Job) -> None:
        job.start(self.sim.now)
        self._alloc_mark[job.name] = self.sim.now
        tr = self.tracer
        if tr is not None:
            tr.emit(JobArrival(time=self.sim.now, job=job.name))
        self.allocator.job_arrived(job)

    def _complete_job(self, job: Job) -> None:
        job.completion_time = self.sim.now
        self._touch_allocation(job)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                JobDeparture(
                    time=self.sim.now,
                    job=job.name,
                    response_time=job.response_time,
                    n_reallocations=job.n_reallocations,
                )
            )
        self.allocator.job_departed(job)
        self._finished_jobs += 1
        if self._finished_jobs == len(self.jobs):
            self.sim.stop()

    # ------------------------------------------------------------------ #
    # open-system disruptions (see repro.workloads.opensys)

    def cancel_job(self, job: Job) -> bool:
        """Cancel ``job``: before arrival it never enters; after arrival its
        processors are released and its partial work stays accounted.

        Returns:
            True if the job was cancelled, False if it had already finished
            or been cancelled (an idempotent no-op that emits nothing).
        """
        if job not in self.jobs:
            raise ValueError(f"job {job.name!r} is not part of this system")
        if job.finished or job.cancelled:
            return False
        arrived = job.name in self._alloc_mark
        if arrived:
            for proc in self.allocator.procs_in(job.owned_mask & self.allocator.busy_mask):
                self.preempt_processor(proc)
            self._touch_allocation(job)
        else:
            handle = self._arrival_handles.get(job.name)
            if handle is not None:
                self.sim.cancel(handle)
        job.cancelled_time = self.sim.now
        tr = self.tracer
        if tr is not None:
            tr.emit(
                JobCancelled(time=self.sim.now, job=job.name, work_done=job.work_done)
            )
        if arrived:
            self.allocator.job_departed(job)
        self._finished_jobs += 1
        if self._finished_jobs == len(self.jobs):
            self.sim.stop()
        return True

    def fail_processor(self, cpu_id: int) -> None:
        """Take processor ``cpu_id`` offline, losing its cache contents.

        A running worker is suspended (its partial work preserved), the
        processor is released and marked offline, every cache residue on
        it is flushed (traced as a ``cache_flush``), and the victim job —
        or, under equipartition, the whole allocation — is re-placed on
        the surviving processors.
        """
        proc = self.allocator.procs[cpu_id]
        if not proc.online:
            raise RuntimeError(f"processor {cpu_id} is already offline")
        victim = proc.job
        if proc.worker is not None:
            self.preempt_processor(proc)
        self.release_processor(proc)
        self._set_online(proc, False)
        proc.history.clear()
        flush = getattr(self.footprint, "flush_processor", None)
        lost = float(flush(cpu_id)) if flush is not None else 0.0
        tr = self.tracer
        if tr is not None:
            tr.emit(CpuFailure(time=self.sim.now, cpu=cpu_id))
            tr.emit(CacheFlush(time=self.sim.now, cpu=cpu_id, lines=int(lost)))
        if self.policy.is_equipartition:
            self.allocator.rebalance_equipartition()
        elif victim is not None and not victim.finished and not victim.cancelled:
            self.allocator.new_work(victim)

    def recover_processor(self, cpu_id: int) -> None:
        """Bring a failed processor back online (with a cold cache)."""
        proc = self.allocator.procs[cpu_id]
        if proc.online:
            raise RuntimeError(f"processor {cpu_id} is already online")
        self._set_online(proc, True)
        tr = self.tracer
        if tr is not None:
            tr.emit(CpuRecovery(time=self.sim.now, cpu=cpu_id))
        if self.policy.is_equipartition:
            self.allocator.rebalance_equipartition()
        else:
            self.allocator.processor_available(proc)

    # ------------------------------------------------------------------ #
    # allocation accounting and the ProcessorRecord writers
    #
    # ``job``, ``worker``, ``yield_handle`` and ``online`` of a processor
    # record change only through _change_owner, _set_worker, _set_yield
    # and _set_online; each one keeps the counters and cpu-id masks
    # derived from its field (see "Scheduling core state" in
    # docs/architecture.md).

    def _touch_allocation(self, job: Job) -> None:
        """Integrate allocation x time for ``job`` up to now."""
        mark = self._alloc_mark.get(job.name)
        if mark is None:
            return
        job.allocation_integral += job.n_owned * (self.sim.now - mark)
        self._alloc_mark[job.name] = self.sim.now

    def _change_owner(
        self, proc: ProcessorRecord, job: typing.Optional[Job]
    ) -> None:
        """Set ``proc.job``; keeps owned counts and masks and the free mask."""
        old = proc.job
        if old is job:
            return
        bit = proc.bit
        if old is not None:
            self._touch_allocation(old)
            old.n_owned -= 1
            old.owned_mask &= ~bit
        if job is not None:
            self._touch_allocation(job)
            job.n_owned += 1
            job.owned_mask |= bit
            self.allocator.free_mask &= ~bit
        elif proc.online:
            self.allocator.free_mask |= bit
        proc.job = job
        tr = self.tracer
        if tr is not None:
            tr.emit(
                AllocationChange(
                    time=self.sim.now,
                    cpu=proc.cpu_id,
                    job=job.name if job else None,
                    prev=old.name if old else None,
                )
            )

    def _set_worker(
        self, proc: ProcessorRecord, job: Job, worker: typing.Optional[WorkerTask]
    ) -> None:
        """Set ``proc.worker``; keeps busy counts and feeds the credit scheme.

        Credits reward *using* few processors, so a processor held idle
        (equipartition hold or a yield-delay window) banks credit for its
        owner just as a released one would.
        """
        if (worker is None) is (proc.worker is None):
            raise RuntimeError(f"processor {proc.cpu_id}: busy state unchanged")
        proc.worker = worker
        if worker is None:
            job.n_busy -= 1
            self.allocator.busy_mask &= ~proc.bit
        else:
            job.n_busy += 1
            self.allocator.busy_mask |= proc.bit
        self.allocator.credit.set_allocation(job, job.n_busy, self.sim.now)

    def _set_yield(self, proc: ProcessorRecord, handle: typing.Optional[object]) -> None:
        """Set ``proc.yield_handle``; keeps the willing-to-yield mask."""
        proc.yield_handle = handle
        if handle is None:
            self.allocator.willing_mask &= ~proc.bit
        else:
            self.allocator.willing_mask |= proc.bit

    def _set_online(self, proc: ProcessorRecord, online: bool) -> None:
        """Set ``proc.online``; an offline processor is never free."""
        proc.online = online
        if online and proc.job is None:
            self.allocator.free_mask |= proc.bit
        else:
            self.allocator.free_mask &= ~proc.bit

    # ------------------------------------------------------------------ #
    # processor hand-off mechanics (called by the allocator and internally)

    def grant_processor(
        self,
        proc: ProcessorRecord,
        job: Job,
        worker: typing.Optional[WorkerTask] = None,
    ) -> None:
        """Give ``proc`` to ``job`` and dispatch a worker if work exists.

        The processor must be free or already held (idle) by ``job``.
        """
        if not proc.online:
            raise RuntimeError(f"processor {proc.cpu_id} is offline")
        if proc.job is not None and proc.job is not job:
            raise RuntimeError(
                f"processor {proc.cpu_id} belongs to {proc.job.name}, "
                f"cannot grant to {job.name}"
            )
        was_held = proc.job is job
        if proc.yield_handle is not None:
            self.sim.cancel(proc.yield_handle)
            self._set_yield(proc, None)
        if proc.idle_since is not None:
            job.waste += self.sim.now - proc.idle_since
            proc.idle_since = None
        self._change_owner(proc, job)
        if worker is None:
            worker = job.select_worker(
                proc.cpu_id, self.policy.use_affinity, self.policy.history_depth
            )
        if worker is None:
            # Granted ahead of demand (equipartition): hold it idle.
            proc.idle_since = self.sim.now
            return
        self._dispatch(proc, job, worker, was_held=was_held)

    def _dispatch(
        self, proc: ProcessorRecord, job: Job, worker: WorkerTask, was_held: bool
    ) -> None:
        """Place ``worker`` on ``proc`` and schedule its thread completion."""
        ready_depth = len(job.ready)
        cheap = (
            was_held
            and worker.last_processor == proc.cpu_id
            and proc.history.last_task == worker.key
        )
        if cheap:
            overhead = 0.0
            switch_charged = penalty_charged = 0.0
            affine = True
        else:
            penalty, affine = self.footprint.reload_penalty(worker.key, proc.cpu_id)
            overhead = self.machine.context_switch_s + penalty
            switch_charged = self.machine.context_switch_s
            penalty_charged = penalty
            job.n_reallocations += 1
            if affine:
                job.n_affine += 1
            job.cache_penalty_total += penalty
            job.switch_overhead_total += self.machine.context_switch_s
        worker.note_dispatch(proc.cpu_id, self.sim.now)
        proc.history.record(worker.key)
        self._set_worker(proc, job, worker)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                Dispatch(
                    time=self.sim.now,
                    cpu=proc.cpu_id,
                    job=job.name,
                    worker=worker.index,
                    affine=affine,
                    cheap=cheap,
                    penalty_s=penalty_charged,
                    switch_s=switch_charged,
                    ready_depth=ready_depth,
                )
            )
        if worker.current_thread is None:
            tid = job.take_ready_thread(worker)
            if tid is None:
                raise RuntimeError(
                    f"dispatched worker {worker.key} with no thread to run"
                )
            worker.current_thread = tid
            worker.remaining_service = job.thread_service_for(worker, tid)
        worker.stint_overhead = overhead
        worker.stint_switch_charged = switch_charged
        worker.stint_penalty_charged = penalty_charged
        run = overhead + worker.remaining_service
        worker.completion_action = functools.partial(
            self._on_thread_complete, proc, worker
        )
        if run <= self.quantum_s:
            worker.completion_handle = self.sim.schedule(
                run, worker.completion_action, label=worker.completion_label
            )
        else:
            self._schedule_quantum_expiry(proc, worker)

    def _schedule_quantum_expiry(self, proc: ProcessorRecord, worker: WorkerTask) -> None:
        """Time sharing: end ``worker``'s stint on ``proc`` one quantum from now."""
        worker.completion_handle = self.sim.schedule(
            self.quantum_s,
            lambda: self._on_quantum_expiry(proc, worker),
            label=f"quantum:{proc.cpu_id}",
        )

    def _depart(
        self, proc: ProcessorRecord, worker: WorkerTask, job: Job, reason: str
    ) -> None:
        """``worker`` leaves ``proc``; it keeps its thread unless ``reason``
        is ``"idle"`` or ``"done"``, and under time sharing then rejoins the
        tail of the run queue."""
        suspended = reason == "preempt" or reason == "yield"
        duration = worker.note_departure(self.sim.now, suspended=suspended)
        if suspended and self.policy.is_time_sharing:
            self.run_queue.append(worker)
        self.footprint.note_run(worker.key, proc.cpu_id, duration, job.curve)
        self._set_worker(proc, job, None)
        tr = self.tracer
        if tr is not None:
            tr.emit(
                Undispatch(
                    time=self.sim.now,
                    cpu=proc.cpu_id,
                    job=job.name,
                    worker=worker.index,
                    reason=reason,
                )
            )

    def preempt_processor(self, proc: ProcessorRecord) -> None:
        """Suspend the worker running on ``proc`` (rule D.3, rebalance,
        cancellation, failure, or quantum expiry)."""
        worker = proc.worker
        if worker is None:
            raise RuntimeError(f"processor {proc.cpu_id} is not running a worker")
        job = proc.job
        assert job is not None
        if worker.completion_handle is not None:
            self.sim.cancel(worker.completion_handle)
            worker.completion_handle = None
        elapsed = self.sim.now - worker.segment_start
        useful = min(max(0.0, elapsed - worker.stint_overhead), worker.remaining_service)
        job.work_done += useful
        worker.remaining_service -= useful
        # Preempted before the dispatch overhead finished executing: the
        # unconsumed portion of the charged switch/reload cost never
        # happened — refund it so processor-time accounting balances.
        unconsumed = max(0.0, worker.stint_overhead - elapsed)
        if unconsumed > 0.0:
            refund_penalty = min(unconsumed, worker.stint_penalty_charged)
            job.cache_penalty_total -= refund_penalty
            job.switch_overhead_total -= min(
                unconsumed - refund_penalty, worker.stint_switch_charged
            )
        worker.stint_switch_charged = 0.0
        worker.stint_penalty_charged = 0.0
        self._depart(proc, worker, job, "preempt")

    def release_processor(self, proc: ProcessorRecord) -> None:
        """Return ``proc`` to the free pool (it must not be running)."""
        if proc.worker is not None:
            raise RuntimeError(f"release of busy processor {proc.cpu_id}")
        if proc.yield_handle is not None:
            self.sim.cancel(proc.yield_handle)
            self._set_yield(proc, None)
        if proc.idle_since is not None and proc.job is not None:
            proc.job.waste += self.sim.now - proc.idle_since
        proc.idle_since = None
        self._change_owner(proc, None)

    # ------------------------------------------------------------------ #
    # event handlers

    def _on_thread_complete(self, proc: ProcessorRecord, worker: WorkerTask) -> None:
        """``worker`` finished its thread on ``proc``: take the next one.

        The common case (the next thread continues on the same processor
        and the job asks for no processor it can get) is a few field
        reads: the graph's counters, the ready deque and, for a job
        without a data-affinity spec, the thread's service time and data
        group (see :func:`~repro.threads.data_affinity.effective_service`).
        """
        job = worker.job
        worker.completion_handle = None
        job.work_done += worker.remaining_service
        graph = job.graph
        ready = job.ready
        ready.extend(graph.complete(worker.current_thread))
        if graph.n_completed == len(graph.service_times):
            self._depart(proc, worker, job, "done")
            self._complete_job(job)
            return

        if job.data_affinity is not None:
            next_tid = job.take_ready_thread(worker)
            if next_tid is not None:
                service = job.thread_service_for(worker, next_tid)
        elif ready:
            # Job.take_ready_thread and effective_service without a spec
            next_tid = ready.popleft()
            worker.last_data_group = graph.data_groups[next_tid]
            service = graph.service_times[next_tid]
        else:
            next_tid = None
        if next_tid is None:
            self._worker_idle(proc, worker, job)
        else:
            worker.current_thread = next_tid
            worker.remaining_service = service
            if self.run_queue:
                # Time sharing with workers waiting: yield the processor at
                # the thread boundary, keeping the thread (a voluntary switch).
                self._depart(proc, worker, job, "yield")
                self.release_processor(proc)
            else:
                # Continue on the same processor: a user-level thread
                # switch, free of kernel or cache cost.
                worker.segment_start = self.sim.now
                worker.stint_overhead = 0.0
                worker.stint_switch_charged = 0.0
                worker.stint_penalty_charged = 0.0
                if service <= self.quantum_s:
                    worker.completion_handle = self.sim.schedule(
                        service, worker.completion_action, label=worker.completion_label
                    )
                else:
                    self._schedule_quantum_expiry(proc, worker)

        if ready or job.n_suspended:
            self._place_new_work(job)

    def _on_quantum_expiry(self, proc: ProcessorRecord, worker: WorkerTask) -> None:
        """Time sharing: preempt mid-thread to the tail of the run queue
        (an involuntary switch), and hand ``proc`` to the next worker."""
        worker.completion_handle = None
        self.preempt_processor(proc)
        self.release_processor(proc)
        self.allocator.processor_available(proc)

    def _worker_idle(self, proc: ProcessorRecord, worker: WorkerTask, job: Job) -> None:
        """The worker found no runnable thread: depart, then hold or yield."""
        self._depart(proc, worker, job, "idle")

        # A suspended sibling holds a partial thread: give it the processor,
        # unless workers wait in the run queue (time sharing), where every
        # suspended worker waits its turn.
        if not self.run_queue:
            sibling = job.select_worker(
                proc.cpu_id, self.policy.use_affinity, self.policy.history_depth
            )
            if sibling is not None:
                self._dispatch(proc, job, sibling, was_held=True)
                return

        if self.policy.is_equipartition:
            proc.idle_since = self.sim.now
        elif self.policy.yield_delay_s > 0:
            proc.idle_since = self.sim.now
            self._set_yield(proc, self.sim.schedule(
                self.policy.yield_delay_s,
                lambda: self._yield_now(proc),
                label=f"yield:{proc.cpu_id}",
            ))
        else:
            self.release_processor(proc)
            self.allocator.processor_available(proc)

    def _yield_now(self, proc: ProcessorRecord) -> None:
        """Yield-delay expired with no new work: give the processor back."""
        self._set_yield(proc, None)
        self.release_processor(proc)
        self.allocator.processor_available(proc)

    def _place_new_work(self, job: Job) -> None:
        """New runnable work appeared in ``job``: use held processors, then ask."""
        allocator = self.allocator
        held_idle = job.owned_mask & ~allocator.busy_mask
        if held_idle:
            for proc in allocator.procs_in(held_idle):
                worker = job.select_worker(
                    proc.cpu_id, prefer_affinity=True,
                    history_depth=self.policy.history_depth,
                )
                if worker is None:
                    break
                self.grant_processor(proc, job, worker=worker)
        if self._new_work is not None:
            self._new_work(job)
