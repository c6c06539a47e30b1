"""The adaptive priority scheme of [McCann et al. 91] (abbreviated).

The paper gives only a summary (its footnote 3): "Each job is assigned a
priority level that depends on its processor usage to that time.  Job
priorities are set using a scheme that raises them as a 'reward' for using
few processors and lowers them as a result of using many.  In this way, a
job acquires credit during periods when it uses few processors.  The job
may later spend these credits to obtain temporarily more than its fair
share of processors."

We implement that summary directly: each job carries a *credit* measured in
processor-seconds, integrating ``(equal_share - current_allocation)`` over
time, clamped to a window so neither credit nor debt grows without bound.
Priority order is credit order.  Rule D.3 preemption is allowed either to
restore parity (victim holds at least two more processors than the
requester) or as *credit spending*: a requester may take processors beyond
parity while its credit exceeds the victim's by a margin that grows with
each processor beyond parity, which bounds burst sizes by banked credit.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.job import Job


class _Account:
    """One tracked job's credit, integrated up to ``last_update``."""

    __slots__ = ("credit", "last_update", "allocation")

    def __init__(self, now: float) -> None:
        self.credit = 0.0
        self.last_update = now
        self.allocation = 0


class CreditScheduler:
    """Tracks per-job credits and answers the policy's priority questions."""

    #: credit window, in processor-seconds: |credit| never exceeds this
    CREDIT_CAP = 8.0
    #: extra credit advantage required per processor taken beyond parity
    SPEND_MARGIN = 0.5
    #: slack when comparing priorities "as high as" (rule A.1's gate)
    EQUALITY_TOLERANCE = 0.25

    def __init__(self, n_processors: int) -> None:
        if n_processors <= 0:
            raise ValueError("need at least one processor")
        self.n_processors = n_processors
        #: job name -> its account, for every tracked (live) job
        self._accounts: typing.Dict[str, _Account] = {}
        self._live_jobs = 0

    # ------------------------------------------------------------------ #
    # bookkeeping

    def job_arrived(self, job: "Job", now: float) -> None:
        """Begin tracking ``job`` with zero credit."""
        self._accounts[job.name] = _Account(now)
        self._live_jobs += 1

    def job_departed(self, job: "Job", now: float) -> None:
        """Stop tracking a completed job."""
        self.refresh(job, now)
        self._accounts.pop(job.name, None)
        self._live_jobs -= 1

    def equal_share(self) -> float:
        """Fair per-job share of the machine at this instant."""
        if self._live_jobs == 0:
            return float(self.n_processors)
        return self.n_processors / self._live_jobs

    def refresh(self, job: "Job", now: float) -> None:
        """Integrate the credit of ``job`` up to ``now``."""
        account = self._accounts.get(job.name)
        if account is None:
            return
        elapsed = now - account.last_update
        if elapsed > 0:
            # equal_share() and the clamp to the credit window, inline
            live = self._live_jobs
            share = self.n_processors / live if live else float(self.n_processors)
            credit = account.credit + (share - account.allocation) * elapsed
            cap = self.CREDIT_CAP
            if credit > cap:
                credit = cap
            elif credit < -cap:
                credit = -cap
            account.credit = credit
        account.last_update = now

    def set_allocation(self, job: "Job", allocation: int, now: float) -> None:
        """Record an allocation change (after integrating up to ``now``)."""
        if allocation < 0:
            raise ValueError("allocation cannot be negative")
        self.refresh(job, now)
        account = self._accounts.get(job.name)
        if account is not None:
            account.allocation = allocation

    def credit(self, job: "Job") -> float:
        """Current banked credit of ``job`` (0.0 if untracked)."""
        account = self._accounts.get(job.name)
        return 0.0 if account is None else account.credit

    # ------------------------------------------------------------------ #
    # policy questions

    def priority_order(self, jobs: typing.Iterable["Job"], now: float) -> typing.List["Job"]:
        """Jobs sorted most-deserving first (highest credit; name tie-break)."""
        jobs = list(jobs)
        for job in jobs:
            self.refresh(job, now)
        return sorted(jobs, key=lambda j: (-self.credit(j), j.name))

    def at_least_as_deserving(self, job: "Job", others: typing.Iterable["Job"]) -> bool:
        """Rule A.1's gate: is ``job``'s priority as high as any requester's?"""
        mine = self.credit(job)
        return all(
            mine >= self.credit(other) - self.EQUALITY_TOLERANCE for other in others
        )

    def may_preempt(
        self,
        requester: "Job",
        requester_allocation: int,
        victim: "Job",
        victim_allocation: int,
    ) -> bool:
        """Rule D.3: may ``requester`` take one processor from ``victim``?

        Parity restoration is always allowed; going beyond parity requires
        spending banked credit, with the required advantage growing per
        processor beyond parity.
        """
        if victim_allocation <= 1:
            return False
        if victim_allocation > requester_allocation + 1:
            return True
        beyond_parity = requester_allocation - victim_allocation + 2
        needed = beyond_parity * self.SPEND_MARGIN
        return self.credit(requester) - self.credit(victim) > needed

    def __repr__(self) -> str:
        return f"CreditScheduler(jobs={self._live_jobs}, share={self.equal_share():.2f})"
