"""Dynamic with Affinity — Dyn-Aff (Section 5.3).

Makes the same reallocation decisions as Dynamic but reduces the cost of
each by maximizing ``%affinity`` through processor and task histories
(depth 1, per [Squillante & Lazowska 89]):

* **A.1** when a processor becomes available, the last task to have run on
  it is re-activated there if it is not active elsewhere, is runnable with
  useful work, and its job's priority is as high as any requester's;
* **A.2** a requesting job names a *desired processor* (where its most
  progress-critical task last ran); the allocator grants it if available.

Preemption of a *busy* desired processor is never performed: "an active
task presumably has greater affinity for the processor than the task we
are attempting to schedule."  Both rules defer to the priority scheme.
"""

from __future__ import annotations

from repro.core.policies.base import Policy


DYN_AFF = Policy(
    name="Dyn-Aff",
    space_sharing="dynamic",
    use_affinity=True,
    respect_priority=True,
    yield_delay_s=0.0,
    description="Dynamic plus affinity rules A.1/A.2 (histories of depth 1)",
)
