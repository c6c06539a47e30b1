"""Cache affinity inside the user-level thread package (Section 9).

The paper closes: "cache effects can have a significant effect on how
applications should be programmed ... Part of our continuing work is an
investigation of these cache effects on the design of software layers
above the kernel, e.g., the user-level thread package."

This module implements that layer.  User-level threads operate on data
(a GRAVITY thread updates one partition of bodies; an MVA thread one
station column).  When a worker task runs a thread whose data it already
touched in its previous thread, that data is warm in the worker's cache
and the thread runs faster.  Two pieces model this:

* threads carry an optional ``data_group`` tag (set by the application's
  graph builder);
* a :class:`DataAffinitySpec` on the job gives the warm-data speedup and
  chooses the user-level dispatch rule — plain FIFO, or *affine*: scan a
  bounded window of the ready queue for a thread matching the worker's
  last data group before falling back to FIFO.

The scheduling system consults :func:`effective_service` at dispatch, so
the whole mechanism composes with every kernel-level allocation policy.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.threads.job import Job
    from repro.threads.workers import WorkerTask


@dataclasses.dataclass(frozen=True)
class DataAffinitySpec:
    """User-level thread scheduling configuration for one job."""

    #: fraction of a thread's service saved when its data group is still
    #: warm in the worker's cache (among its recently-touched groups)
    warm_discount: float = 0.15
    #: dispatch rule: "fifo" ignores groups, "affine" searches the window
    scheduler: str = "affine"
    #: how many ready threads the affine search may inspect
    search_window: int = 16
    #: how many recently-touched data groups stay warm per worker (the
    #: cache holds a few partitions' worth of data)
    group_memory: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.warm_discount < 1.0:
            raise ValueError("warm_discount must be in [0, 1)")
        if self.scheduler not in ("fifo", "affine"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.search_window < 1:
            raise ValueError("search_window must be at least 1")
        if self.group_memory < 1:
            raise ValueError("group_memory must be at least 1")


def _warm_groups(
    worker: "WorkerTask", spec: DataAffinitySpec
) -> typing.FrozenSet[int]:
    """The data groups currently warm in ``worker``'s cache."""
    recent = getattr(worker, "recent_data_groups", None)
    if recent:
        return frozenset(list(recent)[: spec.group_memory])
    if worker.last_data_group is not None:
        return frozenset({worker.last_data_group})
    return frozenset()


def pick_thread(
    job: "Job", worker: "WorkerTask", spec: typing.Optional[DataAffinitySpec]
) -> typing.Optional[int]:
    """Pop the next thread for ``worker`` from ``job``'s ready queue.

    FIFO by default; under an affine spec, prefer (within the search
    window) a thread whose data group is warm for this worker.
    """
    if not job.ready:
        return None
    if spec is None or spec.scheduler == "fifo":
        return job.ready.popleft()
    warm = _warm_groups(worker, spec)
    if not warm:
        return job.ready.popleft()
    window = min(spec.search_window, len(job.ready))
    data_groups = job.graph.data_groups
    for index in range(window):
        tid = job.ready[index]
        if tid < 0:
            raise IndexError(f"no such thread: {tid}")
        group = data_groups[tid]
        if group is not None and group in warm:
            del job.ready[index]
            return tid
    return job.ready.popleft()


def effective_service(
    job: "Job", worker: "WorkerTask", tid: int
) -> float:
    """Service time of ``tid`` on ``worker``, with the warm-data discount.

    Records the thread's group as the worker's ``last_data_group``.
    Under a spec it also pushes the group onto the worker's recent-group
    window, so group reuse within the memory horizon chains its warmth;
    without one no thread runs warm and the window, read only by the
    spec's warm-group test, is left alone.
    """
    if tid < 0:
        raise IndexError(f"no such thread: {tid}")
    graph = job.graph
    service = graph.service_times[tid]
    group = graph.data_groups[tid]
    spec = job.data_affinity
    if spec is None:
        worker.last_data_group = group
        return service
    warm = group is not None and group in _warm_groups(worker, spec)
    worker.last_data_group = group
    if group is not None:
        recent = worker.recent_data_groups
        if group in recent:
            recent.remove(group)
        recent.insert(0, group)
        del recent[8:]
    if warm:
        return service * (1.0 - spec.warm_discount)
    return service
