"""Dynamic (Section 5.2), from [McCann et al. 91].

The other extreme of the policy spectrum: minimizes ``waste`` at the cost
of a very large ``#reallocations``, with no regard for affinity.  Each job
continually reflects its instantaneous processor demand to the allocator
through shared memory; idle processors are declared *willing to yield*
immediately.  Requests are satisfied with the least valuable processors
first:

* **D.1** unallocated processors;
* **D.2** willing-to-yield processors;
* **D.3** equitable allocation enforced by preempting from the job(s)
  with the largest current allocation,

plus the adaptive credit-based priority mechanism.
"""

from __future__ import annotations

from repro.core.policies.base import Policy


DYNAMIC = Policy(
    name="Dynamic",
    space_sharing="dynamic",
    use_affinity=False,
    respect_priority=True,
    yield_delay_s=0.0,
    description=(
        "Demand-driven reallocation (rules D.1-D.3) with the McCann et al. "
        "adaptive priority scheme; oblivious to affinity"
    ),
)
