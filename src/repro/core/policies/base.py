"""Policy interface and shared allocation arithmetic.

A policy is a small bundle of decisions layered over the allocator's
mechanics.  The paper's five policies differ only along the "degrees of
freedom" of Section 2, which map onto four switches:

* ``space_sharing`` — ``"equipartition"`` (reallocate only on job arrival
  and completion), ``"dynamic"`` (reallocate on demand changes, rules
  D.1-D.3), or ``"timesharing"`` (Section 8's contrast: a global run
  queue and a quantum, see :mod:`repro.core.policies.timesharing`);
* ``use_affinity`` — apply rules A.1/A.2 when placing tasks;
* ``respect_priority`` — honor the credit scheme (and enforce D.3);
* ``yield_delay_s`` — how long a job may retain an idle processor hoping
  for new work before declaring it willing-to-yield.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.threads.workers import MAX_HISTORY_DEPTH


@dataclasses.dataclass(frozen=True)
class Policy:
    """A processor allocation policy."""

    name: str
    space_sharing: str  # "equipartition" | "dynamic" | "timesharing"
    use_affinity: bool
    respect_priority: bool
    yield_delay_s: float = 0.0
    #: depth of the processor/task histories consulted by rules A.1/A.2,
    #: from 1 (the paper: "we remember only the last task or processor")
    #: to the ``MAX_HISTORY_DEPTH`` processors a worker remembers
    history_depth: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.space_sharing not in ("equipartition", "dynamic", "timesharing"):
            raise ValueError(f"unknown space_sharing mode {self.space_sharing!r}")
        if self.yield_delay_s < 0:
            raise ValueError("yield_delay_s must be non-negative")
        if not 1 <= self.history_depth <= MAX_HISTORY_DEPTH:
            raise ValueError(
                f"history_depth must be in 1..{MAX_HISTORY_DEPTH}, "
                f"got {self.history_depth}"
            )

    @property
    def is_equipartition(self) -> bool:
        """True for the static extreme of the policy spectrum."""
        return self.space_sharing == "equipartition"

    @property
    def is_time_sharing(self) -> bool:
        """True for Section 8's quantum-driven run-queue scheduling."""
        return self.space_sharing == "timesharing"


def equipartition_allocation(
    max_parallelism: typing.Mapping[str, int], n_processors: int
) -> typing.Dict[str, int]:
    """The Section 5.1 allocation-number computation.

    "The allocation number of all jobs is initially set to zero, and then
    incremented by one in turn.  Any job whose allocation number has
    reached its maximum parallelism drops out.  This process continues
    until either there are no remaining jobs or all processors have been
    allocated."

    Args:
        max_parallelism: per-job maximum usable processors.
        n_processors: machine size.

    Returns:
        Processors to allocate to each job (0 for jobs that fit nothing).
    """
    if n_processors < 0:
        raise ValueError("n_processors must be non-negative")
    allocation = {name: 0 for name in max_parallelism}
    remaining = n_processors
    # Stable round-robin order: insertion order of the mapping.
    active = [name for name, cap in max_parallelism.items() if cap > 0]
    while remaining > 0 and active:
        still_active = []
        for name in active:
            if remaining == 0:
                still_active.append(name)
                continue
            allocation[name] += 1
            remaining -= 1
            if allocation[name] < max_parallelism[name]:
                still_active.append(name)
        active = still_active
    return allocation
