"""The processor allocator (the paper's Minos analogue).

The allocator owns the processor table and makes every *who gets which
processor* decision; the scheduling system (:mod:`repro.core.system`)
executes the mechanics (dispatch overheads, events, cache accounting).

Decision rules implemented here, exactly as Section 5 presents them:

* **D.1** requests are satisfied first from unallocated processors;
* **D.2** then from "willing to yield" processors (idle processors inside
  a yield-delay window still belong to their job but may be claimed);
* **D.3** finally, equity is enforced by preempting from the job(s) with
  the largest current allocation (subject to the credit scheme);
* **A.1** an available processor is offered first to the last task that
  ran on it, if that task is runnable with useful work and its job's
  priority is as high as any requester's (Dyn-Aff-NoPri drops the
  priority clause);
* **A.2** a requesting job names a desired processor — where its most
  progress-critical task last ran — which is granted if available.

Equipartition bypasses all of the above: it computes allocation numbers on
job arrival/completion only (Section 5.1).  So does time sharing
(Section 8): the allocator keeps a global FIFO run queue of workers, each
holding a thread, and hands each available processor the next one.

Every question the rules ask is answered from incrementally kept state
rather than a rescan (see "Scheduling core state" in
``docs/architecture.md``): per-job owned/busy counts and owned-cpu masks
on :class:`~repro.threads.job.Job`, and the free, busy and willing sets
here as int bitmasks over cpu ids, so lowest-id-first iteration keeps
the tie-breaks of the processor table order.
"""

from __future__ import annotations

import collections
import itertools
import typing

from repro.core.history import ProcessorHistory
from repro.core.policies.base import Policy, equipartition_allocation
from repro.core.policies.timesharing import AFFINITY_SEARCH_DEPTH, MAX_SKIPS
from repro.core.priority import CreditScheduler
from repro.obs.records import PolicyDecision
from repro.threads.job import Job
from repro.threads.workers import WorkerState, WorkerTask

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import SchedulingSystem


class ProcessorRecord:
    """Allocator-side state of one processor."""

    def __init__(self, cpu_id: int, history_depth: int = 1) -> None:
        self.cpu_id = cpu_id
        #: this processor's bit in the allocator's cpu-id masks
        self.bit = 1 << cpu_id
        self.job: typing.Optional[Job] = None
        self.worker: typing.Optional[WorkerTask] = None
        #: set while the owning job holds the processor idle
        self.idle_since: typing.Optional[float] = None
        #: pending yield-delay event handle (dynamic policies only)
        self.yield_handle: typing.Optional[object] = None
        #: False while the processor is failed (open-system disruptions)
        self.online = True
        self.history = ProcessorHistory(depth=history_depth)

    @property
    def is_free(self) -> bool:
        """Unallocated and online (an offline processor is never granted)."""
        return self.job is None and self.online

    @property
    def is_busy(self) -> bool:
        """Running a worker."""
        return self.worker is not None

    def __repr__(self) -> str:
        owner = self.job.name if self.job else None
        return f"ProcessorRecord(cpu={self.cpu_id}, job={owner!r}, busy={self.is_busy})"


class Allocator:
    """Implements the Section 5 allocation rules over a processor table."""

    def __init__(
        self,
        policy: Policy,
        n_processors: int,
        system: "SchedulingSystem",
    ) -> None:
        if n_processors <= 0:
            raise ValueError("need at least one processor")
        self.policy = policy
        #: the owning system; None once its run is over (SchedulingSystem._close)
        self.system: typing.Optional["SchedulingSystem"] = system
        self.procs = [
            ProcessorRecord(i, history_depth=policy.history_depth)
            for i in range(n_processors)
        ]
        self.credit = CreditScheduler(n_processors)
        self.jobs: typing.List[Job] = []
        # Bit i describes processor i.  The scheduling system's four
        # ProcessorRecord writers keep them (see SchedulingSystem):
        #: unowned and online (D.1 candidates)
        self.free_mask = (1 << n_processors) - 1
        #: running a worker
        self.busy_mask = 0
        #: held idle inside a yield-delay window (D.2 candidates)
        self.willing_mask = 0
        #: time sharing: workers waiting for a processor, each holding a
        #: thread (always empty under the space-sharing policies)
        self.run_queue: typing.Deque[WorkerTask] = collections.deque()
        #: time sharing: queued worker -> times the affinity search passed it
        self._skips: typing.Dict[WorkerTask, int] = {}
        #: the policy's mode, read on every decision
        self._equipartition = policy.is_equipartition
        self._time_sharing = policy.is_time_sharing

    # ------------------------------------------------------------------ #
    # queries

    def procs_in(self, mask: int) -> typing.List[ProcessorRecord]:
        """The processors whose bits are set in ``mask``, in id order."""
        procs = self.procs
        out = []
        while mask:
            low = mask & -mask
            out.append(procs[low.bit_length() - 1])
            mask ^= low
        return out

    def allocation(self, job: Job) -> int:
        """Processors currently owned by ``job`` (busy or held idle)."""
        return job.n_owned

    def free_processors(self) -> typing.List[ProcessorRecord]:
        """Unallocated processors, in id order."""
        return self.procs_in(self.free_mask)

    def online_count(self) -> int:
        """Processors currently online (the machine size policies see)."""
        return sum(1 for p in self.procs if p.online)

    def willing_processors(self, exclude: Job) -> typing.List[ProcessorRecord]:
        """Yield-delay-window processors claimable by other jobs (D.2)."""
        return self.procs_in(self.willing_mask & ~exclude.owned_mask)

    def requesters(self, exclude: typing.Optional[Job] = None) -> typing.List[Job]:
        """Live jobs that could use additional processors right now."""
        result = []
        for job in self.jobs:
            if job is exclude or job.finished:
                continue
            if job.additional_request(self.allocation(job)) > 0:
                result.append(job)
        return result

    def _worker_of(self, key: typing.Tuple[str, int]) -> typing.Optional[WorkerTask]:
        for job in self.jobs:
            worker = job.worker_by_key(key)
            if worker is not None:
                return worker
        return None

    # ------------------------------------------------------------------ #
    # observability

    def _emit_decision(
        self,
        rule: str,
        job: typing.Optional[Job],
        cpu: typing.Optional[int],
        reason: str,
        compared: typing.Sequence[Job] = (),
        allocations: typing.Optional[typing.Mapping[str, int]] = None,
    ) -> None:
        """Record one allocation decision, with the evidence it weighed.

        The credits of ``compared`` are exactly what the rule compared,
        so the invariant layer can re-derive the choice mechanically.
        They are read only when a tracer is attached.
        """
        tracer = self.system.tracer
        if tracer is None:
            return
        tracer.emit(
            PolicyDecision(
                time=self.system.now,
                rule=rule,
                job=job.name if job is not None else None,
                cpu=cpu,
                reason=reason,
                credits={j.name: self.credit.credit(j) for j in compared},
                allocations=dict(allocations) if allocations else {},
            )
        )

    # ------------------------------------------------------------------ #
    # job lifecycle

    def job_arrived(self, job: Job) -> None:
        """Admit ``job``; equipartition rebalances, dynamic lets it request,
        time sharing queues its workers."""
        now = self.system.now
        self.jobs.append(job)
        self.credit.job_arrived(job, now)
        if self._equipartition:
            self.rebalance_equipartition()
        else:
            self.new_work(job)

    def job_departed(self, job: Job) -> None:
        """Remove a finished or cancelled job and redistribute its processors."""
        self.credit.job_departed(job, self.system.now)
        self.jobs.remove(job)
        freed = self.procs_in(job.owned_mask)
        for proc in freed:
            self.system.release_processor(proc)
        if self._equipartition:
            self.rebalance_equipartition()
        else:
            for worker in [w for w in self.run_queue if w.job is job]:
                self.run_queue.remove(worker)
                self._skips.pop(worker, None)
            for proc in freed:
                if proc.is_free:
                    self.processor_available(proc)

    # ------------------------------------------------------------------ #
    # equipartition (Section 5.1)

    def equipartition_targets(self) -> typing.Dict[str, int]:
        """Allocation numbers for the current job set.

        The paper leaves the round-robin increment order unspecified; we
        order by descending maximum parallelism (then name), so remainder
        processors go to the jobs best able to use them.
        """
        ordered = sorted(self.jobs, key=lambda j: (-len(j.workers), j.name))
        caps = {job.name: len(job.workers) for job in ordered}
        return equipartition_allocation(caps, self.online_count())

    def rebalance_equipartition(self) -> None:
        """Move processors so every job holds its allocation number.

        Processors are taken from over-allocated jobs (idle ones first)
        and granted to under-allocated jobs.  This happens only on job
        arrival and completion, so in the workload mixes (simultaneous
        arrival at t = 0) it runs a handful of times per experiment.
        """
        targets = self.equipartition_targets()
        self._emit_decision(
            "EQ",
            None,
            None,
            "allocation numbers recomputed on job arrival/completion",
            allocations=targets,
        )
        surplus = self.free_processors()
        for job in self.jobs:
            excess = self.allocation(job) - targets[job.name]
            if excess <= 0:
                continue
            owned = self.procs_in(job.owned_mask)
            owned.sort(key=lambda p: (p.is_busy, p.cpu_id))  # idle first
            for proc in owned[:excess]:
                if proc.is_busy:
                    self.system.preempt_processor(proc)
                self.system.release_processor(proc)
                surplus.append(proc)
        for job in self.jobs:
            deficit = targets[job.name] - self.allocation(job)
            for _ in range(deficit):
                if not surplus:
                    return
                proc = surplus.pop(0)
                self.system.grant_processor(proc, job)

    # ------------------------------------------------------------------ #
    # dynamic policies (Sections 5.2-5.4)

    def processor_available(self, proc: ProcessorRecord) -> None:
        """A processor became free: apply rule A.1, then priority dispatch.

        Never called under equipartition, which does not react to
        availability mid-run.
        """
        if not proc.is_free:
            raise RuntimeError(f"processor {proc.cpu_id} is not free")
        if self._time_sharing:
            worker = self._dequeue(proc.cpu_id)
            if worker is not None:
                self.system.grant_processor(proc, worker.job, worker=worker)
            return
        requesting = self.requesters()
        if self.policy.use_affinity:
            # Rule A.1, walking the processor history most-recent first
            # (depth 1 in the paper; deeper for the history ablation).
            for task_key in proc.history:
                worker = self._worker_of(task_key)
                if worker is None or worker not in worker.job.dispatchable_workers():
                    continue
                priority_ok = (
                    not self.policy.respect_priority
                    or self.credit.at_least_as_deserving(worker.job, requesting)
                )
                if priority_ok:
                    # The credits the gate actually compared (none for
                    # NoPri, which never ran the gate).
                    self._emit_decision(
                        "A.1",
                        worker.job,
                        proc.cpu_id,
                        "affinity offer to the last task that ran here",
                        compared=(
                            [worker.job] + requesting
                            if self.policy.respect_priority
                            else ()
                        ),
                    )
                    self.system.grant_processor(proc, worker.job, worker=worker)
                    return
                break  # the most deserving history entry lost on priority
        if not requesting:
            return
        if self.policy.respect_priority:
            job = self.credit.priority_order(requesting, self.system.now)[0]
        else:
            job = self.system.rng.choice(requesting)
        worker = job.select_worker(
            proc.cpu_id, self.policy.use_affinity, self.policy.history_depth
        )
        if worker is None:
            return
        if self.policy.respect_priority:
            self._emit_decision(
                "priority",
                job,
                proc.cpu_id,
                "highest-credit requester wins the free processor",
                compared=requesting,
            )
        else:
            self._emit_decision(
                "random",
                job,
                proc.cpu_id,
                "uniform-random requester (priority clause dropped)",
            )
        self.system.grant_processor(proc, job, worker=worker)

    def new_work(self, job: Job) -> None:
        """``job`` has new runnable work: apply rules D.1, D.2, D.3 / A.2.

        Never called under equipartition, whose processors the system
        has already put to use.
        """
        if self._time_sharing:
            self._enqueue(job)
            return
        workers = len(job.workers)
        while True:
            # Job.additional_request(job.n_owned) > 0, inline
            demand = len(job.ready) + job.n_suspended + job.n_running
            if demand > workers:
                demand = workers
            if demand <= job.n_owned:
                return
            # Each rule is tried only when its candidate set is non-empty,
            # and a non-empty set always yields a processor.
            if self.free_mask:
                proc = self._take_free(job)
                self._emit_decision("D.1", job, proc.cpu_id, "granted from the free pool")
            elif self.willing_mask & ~job.owned_mask:
                proc = self._take_willing(job)
                self._emit_decision(
                    "D.2", job, proc.cpu_id, "claimed from a yield-delay window"
                )
            else:
                # _take_preempt emits its own evidence record
                proc = self._take_preempt(job)
                if proc is None:
                    return
            worker = job.select_worker(
                proc.cpu_id, self.policy.use_affinity, self.policy.history_depth
            )
            if worker is None:
                return
            self.system.grant_processor(proc, job, worker=worker)

    def _pick_with_affinity(
        self, job: Job, candidates: typing.List[ProcessorRecord]
    ) -> typing.Optional[ProcessorRecord]:
        """A.2: desired processor first, then any affine one, then arbitrary."""
        if not candidates:
            return None
        if self.policy.use_affinity:
            desired = job.desired_processor()
            for proc in candidates:
                if proc.cpu_id == desired:
                    return proc
            affine_cpus = {
                w.last_processor
                for w in job.dispatchable_workers()
                if w.last_processor is not None
            }
            for proc in candidates:
                if proc.cpu_id in affine_cpus:
                    return proc
        # Affinity-oblivious fall-through: lowest-numbered candidate, the
        # natural free-list order a real allocator hands out.  (This is
        # what gives plain Dynamic its *incidental* ~20-30% affinity in
        # Table 3: tasks tend to bounce within a stable set of processors.)
        return candidates[0]

    def _take_free(self, job: Job) -> ProcessorRecord:
        """Rule D.1 (called only while a processor is free)."""
        proc = self._pick_with_affinity(job, self.free_processors())
        assert proc is not None
        return proc

    def _take_willing(self, job: Job) -> ProcessorRecord:
        """Rule D.2: claim a processor out of another job's yield window
        (called only while one is claimable by ``job``)."""
        proc = self._pick_with_affinity(job, self.willing_processors(exclude=job))
        assert proc is not None
        self.system.release_processor(proc)
        return proc

    def _take_preempt(self, job: Job) -> typing.Optional[ProcessorRecord]:
        """Rule D.3: preempt from the job(s) with the largest allocation."""
        if not self.policy.respect_priority:
            return None  # Dyn-Aff-NoPri ignores D.3 entirely
        # The job minimizing (-n_owned, name): largest allocation, then
        # lowest name.  ``jobs`` holds live jobs only.
        victim: typing.Optional[Job] = None
        for other in self.jobs:
            if other is job:
                continue
            if victim is None or other.n_owned > victim.n_owned or (
                other.n_owned == victim.n_owned and other.name < victim.name
            ):
                victim = other
        if victim is None:
            return None
        my_alloc = job.n_owned
        victim_alloc = victim.n_owned
        now = self.system.sim.now
        self.credit.refresh(job, now)
        self.credit.refresh(victim, now)
        if not self.credit.may_preempt(job, my_alloc, victim, victim_alloc):
            return None
        owned_busy = self.procs_in(victim.owned_mask & self.busy_mask)
        if not owned_busy:
            return None
        proc = self.system.rng.choice(owned_busy)
        self._emit_decision(
            "D.3",
            job,
            proc.cpu_id,
            f"preempt {victim.name} (largest allocation) for equity",
            compared=(job, victim),
            allocations={job.name: my_alloc, victim.name: victim_alloc},
        )
        self.system.preempt_processor(proc)
        self.system.release_processor(proc)
        return proc

    # ------------------------------------------------------------------ #
    # time sharing (Section 8)

    def _enqueue(self, job: Job) -> None:
        """Queue ``job``'s idle workers, each holding one of its ready
        threads, then fill idle processors lowest cpu id first.

        Workers holding a partial thread are already queued: the system
        requeues them as they leave a processor.
        """
        queue = self.run_queue
        if job.ready and job.n_running + job.n_suspended < len(job.workers):
            for worker in job.workers:
                if worker.state is WorkerState.IDLE:
                    tid = job.take_ready_thread(worker)
                    if tid is None:
                        break
                    worker.hold_thread(tid, job.thread_service_for(worker, tid))
                    queue.append(worker)
        for proc in self.procs_in(self.free_mask):
            if not queue:
                return
            self.processor_available(proc)

    def _dequeue(self, cpu: int) -> typing.Optional[WorkerTask]:
        """The queued worker to run next on ``cpu``, removed from the queue.

        FIFO; under affinity, the first of the leading
        :data:`AFFINITY_SEARCH_DEPTH` workers that last ran on ``cpu``,
        unless the head has already been passed over :data:`MAX_SKIPS`
        times (aging).
        """
        queue = self.run_queue
        if not queue:
            return None
        skips = self._skips
        if self.policy.use_affinity and skips.get(queue[0], 0) < MAX_SKIPS:
            for index in range(min(AFFINITY_SEARCH_DEPTH, len(queue))):
                worker = queue[index]
                if worker.last_processor == cpu:
                    del queue[index]
                    skips.pop(worker, None)
                    for skipped in itertools.islice(queue, index):
                        skips[skipped] = skips.get(skipped, 0) + 1
                    return worker
        worker = queue.popleft()
        skips.pop(worker, None)
        return worker
