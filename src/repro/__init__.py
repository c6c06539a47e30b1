"""repro — reproduction of Vaswani & Zahorjan (SOSP 1991).

"The Implications of Cache Affinity on Processor Scheduling for
Multiprogrammed, Shared Memory Multiprocessors."

The package provides:

* :mod:`repro.engine` — discrete-event simulation core;
* :mod:`repro.machine` — the Sequent Symmetry machine model (caches,
  footprints, bus);
* :mod:`repro.threads` — user-level threads, jobs and worker tasks;
* :mod:`repro.apps` — the MVA, MATRIX and GRAVITY applications;
* :mod:`repro.kernels` — the real computations the applications model;
* :mod:`repro.core` — the allocator and the five space-sharing policies
  (the paper's contribution);
* :mod:`repro.model` — the analytic response time model of Sections 2/7;
* :mod:`repro.measure` — the Table 1 penalty experiment and the Section 6
  workload runner;
* :mod:`repro.reporting` — table and ASCII-figure rendering.

Quickstart::

    from repro import run_mix, DYN_AFF
    result = run_mix(5, DYN_AFF, seed=1)
    print(result.mean_response_time())
"""

from repro.apps import APPLICATIONS, GRAVITY, MATRIX, MVA
from repro.core import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
    POLICIES,
    Policy,
    SchedulingSystem,
)
from repro.machine import SEQUENT_SYMMETRY, MachineSpec, future_machine
from repro.measure import (
    MIXES,
    PenaltyExperiment,
    make_jobs,
    run_mix,
)

__version__ = "1.0.0"

__all__ = [
    "APPLICATIONS",
    "DYNAMIC",
    "DYN_AFF",
    "DYN_AFF_DELAY",
    "DYN_AFF_NOPRI",
    "EQUIPARTITION",
    "GRAVITY",
    "MATRIX",
    "MIXES",
    "MVA",
    "MachineSpec",
    "POLICIES",
    "PenaltyExperiment",
    "Policy",
    "SEQUENT_SYMMETRY",
    "SchedulingSystem",
    "future_machine",
    "make_jobs",
    "run_mix",
    "__version__",
]
