"""Executable reference spec of the Section 5 allocation rules.

:class:`SpecAllocator` answers every question of rules D.1-D.3 and
A.1-A.2 by rescanning the processor table and every job's workers, the
way the rules read in the paper.  It plays the role
``repro.machine.backends.scalar`` plays for the cache backends: the
runtime :class:`~repro.core.allocator.Allocator` answers the same
questions from incrementally maintained counters and cpu-id bitmasks,
and ``test_allocator_spec.py`` checks that both make the same decision
at every step.  Nothing under ``src/`` imports this module.

The spec reads only :class:`ProcessorRecord` fields (``job``,
``worker``, ``yield_handle``, ``online``) and worker states, never a
counter or mask, so a drifted counter shows up as a different decision.
The decision-independent plumbing (tracing, profiling spans, the credit
scheduler, equipartition targets) is inherited unchanged.
"""

from __future__ import annotations

import typing

from repro.core.allocator import Allocator, ProcessorRecord
from repro.threads.job import Job
from repro.threads.workers import WorkerState, WorkerTask


def spec_willing(p: ProcessorRecord) -> bool:
    """Held idle inside a yield-delay window (claimable via D.2)."""
    return p.job is not None and p.worker is None and p.yield_handle is not None


# --------------------------------------------------------------------- #
# job-side questions, by rescanning workers


def spec_demand(job: Job) -> int:
    """Ready threads + suspended workers + running workers, capped."""
    suspended = sum(1 for w in job.workers if w.state == WorkerState.SUSPENDED)
    running = sum(1 for w in job.workers if w.state == WorkerState.RUNNING)
    return min(len(job.workers), len(job.ready) + suspended + running)


def spec_additional_request(job: Job, allocated: int) -> int:
    return max(0, spec_demand(job) - allocated)


def spec_dispatchable_workers(job: Job) -> typing.List[WorkerTask]:
    """Suspended workers, then one idle worker per unclaimed ready thread."""
    result = [w for w in job.workers if w.state == WorkerState.SUSPENDED]
    spare_threads = len(job.ready)
    for worker in job.workers:
        if spare_threads <= 0:
            break
        if worker.state == WorkerState.IDLE:
            result.append(worker)
            spare_threads -= 1
    return result


def spec_select_worker(
    job: Job, processor: int, prefer_affinity: bool, history_depth: int = 1
) -> typing.Optional[WorkerTask]:
    candidates = spec_dispatchable_workers(job)
    if not candidates:
        return None
    if prefer_affinity:
        for depth in range(1, history_depth + 1):
            for worker in candidates:
                if worker.affinity_within(processor, depth):
                    return worker
    return candidates[0]


def spec_desired_processor(job: Job) -> typing.Optional[int]:
    best: typing.Optional[WorkerTask] = None
    for worker in job.workers:
        if worker.state != WorkerState.SUSPENDED or worker.last_processor is None:
            continue
        if best is None or worker.remaining_service > best.remaining_service:
            best = worker
    if best is not None:
        return best.last_processor
    for worker in spec_dispatchable_workers(job):
        if worker.last_processor is not None:
            return worker.last_processor
    return None


# --------------------------------------------------------------------- #
# the allocator


class SpecAllocator(Allocator):
    """The Section 5 rules, every query a rescan (see the module docstring)."""

    # -- queries ---------------------------------------------------------- #

    def allocation(self, job: Job) -> int:
        return sum(1 for p in self.procs if p.job is job)

    def free_processors(self) -> typing.List[ProcessorRecord]:
        return [p for p in self.procs if p.is_free]

    def willing_processors(self, exclude: Job) -> typing.List[ProcessorRecord]:
        return [p for p in self.procs if spec_willing(p) and p.job is not exclude]

    def requesters(self, exclude: typing.Optional[Job] = None) -> typing.List[Job]:
        return [
            job
            for job in self.jobs
            if job is not exclude
            and not job.finished
            and spec_additional_request(job, self.allocation(job)) > 0
        ]

    # -- job lifecycle ------------------------------------------------------ #

    def job_departed(self, job: Job) -> None:
        self.credit.job_departed(job, self.system.now)
        self.jobs.remove(job)
        freed = [p for p in self.procs if p.job is job]
        for proc in freed:
            self.system.release_processor(proc)
        if self.policy.is_equipartition:
            self.rebalance_equipartition()
        else:
            for proc in freed:
                if proc.is_free:
                    self.processor_available(proc)

    # -- equipartition -------------------------------------------------------- #

    def _rebalance_impl(self) -> None:
        targets = self.equipartition_targets()
        self._emit_decision(
            "EQ",
            None,
            None,
            "allocation numbers recomputed on job arrival/completion",
            allocations=targets,
        )
        surplus = [p for p in self.procs if p.is_free]
        for job in self.jobs:
            excess = self.allocation(job) - targets[job.name]
            if excess <= 0:
                continue
            owned = [p for p in self.procs if p.job is job]
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
                self.system.grant_processor(surplus.pop(0), job)

    # -- dynamic policies ------------------------------------------------------ #

    def _processor_available_impl(self, proc: ProcessorRecord) -> None:
        if not proc.is_free:
            raise RuntimeError(f"processor {proc.cpu_id} is not free")
        requesting = self.requesters()
        if self.policy.use_affinity:
            # Rule A.1, most recent history entry first.
            for task_key in proc.history:
                worker = self._worker_of(task_key)
                if worker is None or worker not in spec_dispatchable_workers(worker.job):
                    continue
                priority_ok = (
                    not self.policy.respect_priority
                    or self.credit.at_least_as_deserving(worker.job, requesting)
                )
                if priority_ok:
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
                break
        if not requesting:
            return
        if self.policy.respect_priority:
            job = self.credit.priority_order(requesting, self.system.now)[0]
        else:
            job = self.system.rng.choice(requesting)
        worker = spec_select_worker(
            job, proc.cpu_id, self.policy.use_affinity, self.policy.history_depth
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

    def _new_work_impl(self, job: Job) -> None:
        while True:
            if spec_additional_request(job, self.allocation(job)) <= 0:
                return
            rule, reason = "D.1", "granted from the free pool"
            proc = self._pick_with_affinity(job, self.free_processors())
            if proc is None:
                rule, reason = "D.2", "claimed from a yield-delay window"
                proc = self._pick_with_affinity(job, self.willing_processors(job))
                if proc is not None:
                    self.system.release_processor(proc)
            if proc is None:
                rule = "D.3"
                proc = self._take_preempt(job)
            if proc is None:
                return
            if rule != "D.3":
                self._emit_decision(rule, job, proc.cpu_id, reason)
            worker = spec_select_worker(
                job, proc.cpu_id, self.policy.use_affinity, self.policy.history_depth
            )
            if worker is None:
                return
            self.system.grant_processor(proc, job, worker=worker)

    def _pick_with_affinity(
        self, job: Job, candidates: typing.List[ProcessorRecord]
    ) -> typing.Optional[ProcessorRecord]:
        """A.2: desired processor, then any affine one, then the lowest id."""
        if not candidates:
            return None
        if self.policy.use_affinity:
            desired = spec_desired_processor(job)
            for proc in candidates:
                if proc.cpu_id == desired:
                    return proc
            affine_cpus = {
                w.last_processor
                for w in spec_dispatchable_workers(job)
                if w.last_processor is not None
            }
            for proc in candidates:
                if proc.cpu_id in affine_cpus:
                    return proc
        return candidates[0]

    def _take_preempt(self, job: Job) -> typing.Optional[ProcessorRecord]:
        """D.3: preempt from the job with the largest allocation (name tie-break)."""
        if not self.policy.respect_priority:
            return None
        my_alloc = self.allocation(job)
        victims = [
            (self.allocation(other), other)
            for other in self.jobs
            if other is not job and not other.finished
        ]
        if not victims:
            return None
        victims.sort(key=lambda item: (-item[0], item[1].name))
        victim_alloc, victim = victims[0]
        self.credit.refresh(job, self.system.now)
        self.credit.refresh(victim, self.system.now)
        if not self.credit.may_preempt(job, my_alloc, victim, victim_alloc):
            return None
        owned_busy = [p for p in self.procs if p.job is victim and p.is_busy]
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
