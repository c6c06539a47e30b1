"""Dyn-Aff-NoPri (Section 5.3): the artificial no-fairness variant.

Used only to measure the maximum benefit affinity scheduling could provide
if non-performance considerations (fairness, interactive response,
countermeasure resilience) were sacrificed:

* rule **D.3** is ignored — no preemption enforces equity;
* rule **A.1** always reactivates *last-task* when it is runnable with
  work, regardless of priority.

The paper emphasizes this "is not suggested as a policy for implementation
in real systems"; its erratic per-job response times (Figure 6) and its
failure to beat Dyn-Aff on homogeneous workloads (Table 4) are the point.
"""

from __future__ import annotations

from repro.core.policies.base import Policy


DYN_AFF_NOPRI = Policy(
    name="Dyn-Aff-NoPri",
    space_sharing="dynamic",
    use_affinity=True,
    respect_priority=False,
    yield_delay_s=0.0,
    description=(
        "Dyn-Aff with the priority scheme sacrificed to affinity: no D.3 "
        "preemption, A.1 ignores priorities (artificial bounding policy)"
    ),
)
