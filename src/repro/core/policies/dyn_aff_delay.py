"""Dyn-Aff-Delay (Section 5.4): affinity plus yield-delay.

A less aggressive Dynamic that sits between the Equipartition and Dynamic
extremes: a job retains an idle ("willing to yield") processor for a short
period in the hope that new work arrives within the job, in which case the
work starts with no reallocation penalty at all — the spin-then-block idea
of [Lo & Gligor 87, Karlin et al. 91] applied to processor allocation.
Trades slightly increased ``waste`` for reduced ``#reallocations``.

During the delay window the processor *is* still willing to yield: another
job's request may claim it (rule D.2), cancelling the delay.

The paper does not give its delay constant; 25 ms reproduces Table 3's
~35% reduction in reallocations while keeping response times essentially
equal to Dyn-Aff's on the base machine, and sits well under the 220-450 ms
reallocation intervals the paper reports.
"""

from __future__ import annotations

from repro.core.policies.base import Policy


#: Delay before an idle processor is actually handed back.
DEFAULT_YIELD_DELAY_S = 0.025


DYN_AFF_DELAY = Policy(
    name="Dyn-Aff-Delay",
    space_sharing="dynamic",
    use_affinity=True,
    respect_priority=True,
    yield_delay_s=DEFAULT_YIELD_DELAY_S,
    description=(
        "Dyn-Aff plus a yield delay: idle processors are retained briefly "
        "so newly generated work avoids a reallocation"
    ),
)
