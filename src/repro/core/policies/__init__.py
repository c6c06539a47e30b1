"""The five space-sharing policies of Section 5, and Section 8's time sharing.

:data:`POLICIES` holds the paper's five; the two time-sharing values
(:mod:`repro.core.policies.timesharing`) run on the same scheduling
system but are kept out of it, so every five-policy set stays the paper's.
"""

from repro.core.policies.base import Policy, equipartition_allocation
from repro.core.policies.dyn_aff import DYN_AFF, DynAff
from repro.core.policies.dyn_aff_delay import DYN_AFF_DELAY, DynAffDelay
from repro.core.policies.dyn_aff_nopri import DYN_AFF_NOPRI, DynAffNoPri
from repro.core.policies.dynamic import DYNAMIC, Dynamic
from repro.core.policies.equipartition import EQUIPARTITION, Equipartition
from repro.core.policies.timesharing import TIME_SHARING, TIME_SHARING_AFFINITY

#: All policies by display name, in the paper's presentation order.
POLICIES = {
    policy.name: policy
    for policy in (EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_NOPRI, DYN_AFF_DELAY)
}

__all__ = [
    "DYNAMIC",
    "DYN_AFF",
    "DYN_AFF_DELAY",
    "DYN_AFF_NOPRI",
    "Dynamic",
    "DynAff",
    "DynAffDelay",
    "DynAffNoPri",
    "EQUIPARTITION",
    "Equipartition",
    "POLICIES",
    "Policy",
    "TIME_SHARING",
    "TIME_SHARING_AFFINITY",
    "equipartition_allocation",
]
