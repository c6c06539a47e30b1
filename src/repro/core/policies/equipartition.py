"""Equipartition (Section 5.1).

The static extreme of the space-sharing spectrum: a constant, equal
allocation of processors to all jobs, recomputed only on job arrival and
completion via the allocation-number algorithm (based on the "process
control" policy of [Tucker & Gupta 89]).  Minimizes ``#reallocations`` at
the expense of maximizing ``waste`` — and therefore provides perfect
affinity scheduling, "since tasks essentially never move".
"""

from __future__ import annotations

from repro.core.policies.base import Policy


EQUIPARTITION = Policy(
    name="Equipartition",
    space_sharing="equipartition",
    use_affinity=False,
    respect_priority=False,
    yield_delay_s=0.0,
    description=(
        "Static equal partition; reallocates only on job arrival/completion "
        "(process-control style, Tucker & Gupta 89)"
    ),
)
