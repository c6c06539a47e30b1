"""Time sharing (Section 8's contrast), after DYNIX.

Section 8 reconciles the paper's "affinity barely matters" result with
earlier studies ([Squillante & Lazowska 89], [Mogul & Borg 91]) that
found large affinity effects: those studied *time sharing*, which
rotates processors among jobs' tasks on quantum expiry.  Reallocation is
then frequent and involuntary, tasks are interrupted mid-computation,
and jobs continually overwrite each other's cache contexts.

Workers wait in one global FIFO run queue, each holding a thread.  A
processor belongs to a job only while one of its workers runs there; a
worker leaves on quantum expiry (to the tail of the queue), or at a
thread boundary while others wait.  The affinity variant dispatches the
queued worker that last ran on the processor, searching a bounded depth
and aging skipped workers.  These are values of :class:`Policy`, run by
the same :class:`~repro.core.system.SchedulingSystem` as the five
space-sharing policies, so their results are directly comparable; they
are not among :data:`repro.core.policies.POLICIES`.
"""

from __future__ import annotations

from repro.core.policies.base import Policy

#: DYNIX's time-sharing quantum (paper, footnote 2)
DYNIX_QUANTUM_S = 0.100

#: how deep into the run queue the affinity search may look
AFFINITY_SEARCH_DEPTH = 8

#: a queued worker skipped this many times is dispatched next (aging:
#: without it the affinity search starves workers whose affine processor
#: never comes up, per [Squillante & Lazowska 89])
MAX_SKIPS = 4

TIME_SHARING = Policy(
    name="TimeSharing",
    space_sharing="timesharing",
    use_affinity=False,
    respect_priority=False,
    description="Round-robin over a global run queue with DYNIX's 100 ms quantum",
)

TIME_SHARING_AFFINITY = Policy(
    name="TimeSharing-Aff",
    space_sharing="timesharing",
    use_affinity=True,
    respect_priority=False,
    description=(
        "Time sharing that dispatches the queued worker that last ran on "
        "the processor (bounded search, with aging)"
    ),
)
