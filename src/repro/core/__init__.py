"""Processor allocation: the paper's contribution.

This package is the Minos analogue: an allocator framework
(:mod:`~repro.core.allocator`), the adaptive priority scheme of
[McCann et al. 91] (:mod:`~repro.core.priority`), processor/task histories
(:mod:`~repro.core.history`), the five space-sharing policies of Section 5
and Section 8's time-sharing contrast (:mod:`~repro.core.policies`), and
the discrete-event scheduling system (:mod:`~repro.core.system`) that
runs workload mixes under any of them.
"""

from repro.core.allocator import Allocator
from repro.core.history import ProcessorHistory, TaskHistory
from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
    POLICIES,
    TIME_SHARING,
    TIME_SHARING_AFFINITY,
    Policy,
    equipartition_allocation,
)
from repro.core.priority import CreditScheduler
from repro.core.system import SchedulingSystem, SystemResult

__all__ = [
    "Allocator",
    "CreditScheduler",
    "DYNAMIC",
    "DYN_AFF",
    "DYN_AFF_DELAY",
    "DYN_AFF_NOPRI",
    "EQUIPARTITION",
    "POLICIES",
    "Policy",
    "ProcessorHistory",
    "SchedulingSystem",
    "SystemResult",
    "TIME_SHARING",
    "TIME_SHARING_AFFINITY",
    "TaskHistory",
    "equipartition_allocation",
]
