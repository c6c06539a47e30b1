"""User-level thread substrate.

The paper's applications are built on user-level threads: each program is a
*thread dependence graph* (nodes = user-level threads, edges = precedence)
executed by a smaller, fixed set of *worker tasks* (kernel-schedulable
threads), one per allocated processor.  This package provides:

* :class:`~repro.threads.graph.ThreadGraph` — the dependence DAG with
  readiness tracking and the parallelism-profile computation behind the
  paper's Figures 2-4;
* :class:`~repro.threads.job.Job` — one running application instance;
* :class:`~repro.threads.workers.WorkerTask` — the kernel-thread workers
  that acquire processor affinity;
* :mod:`~repro.threads.sync` — barrier construction and the critical
  section contention model GRAVITY's phases use.
"""

from repro.threads.data_affinity import DataAffinitySpec, effective_service, pick_thread
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job
from repro.threads.sync import CriticalSectionModel, add_barrier
from repro.threads.workers import WorkerState, WorkerTask

__all__ = [
    "CriticalSectionModel",
    "DataAffinitySpec",
    "Job",
    "ThreadGraph",
    "WorkerState",
    "WorkerTask",
    "add_barrier",
    "effective_service",
    "pick_thread",
]
