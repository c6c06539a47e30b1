"""Small synthetic jobs for fast scheduling-system tests."""

from repro.machine.footprint import FootprintCurve
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job

#: A modest working set so cache penalties exist but stay small.
TEST_CURVE = FootprintCurve(w_max=1000, tau=0.05)


def critical_path(graph: ThreadGraph) -> float:
    """Length (seconds) of the longest dependence chain of ``graph``.

    A referee for scheduling tests: no run, on any number of processors,
    can finish a job sooner.
    """
    service = graph.service_times
    blocked = list(graph.n_predecessors)
    earliest_start = [0.0] * len(service)
    ready = [tid for tid, n in enumerate(blocked) if not n]
    longest = 0.0
    while ready:
        tid = ready.pop()
        end = earliest_start[tid] + service[tid]
        longest = max(longest, end)
        for succ in graph.successors[tid]:
            earliest_start[succ] = max(earliest_start[succ], end)
            blocked[succ] -= 1
            if not blocked[succ]:
                ready.append(succ)
    return longest


def flat_job(name: str, n_threads: int, service: float, workers: int) -> Job:
    """Independent threads (MATRIX-like)."""
    graph = ThreadGraph(name)
    for _ in range(n_threads):
        graph.add_thread(service)
    return Job(name, graph, TEST_CURVE, max_workers=workers)


def chain_job(name: str, n_threads: int, service: float, workers: int = 1) -> Job:
    """A sequential chain (parallelism 1)."""
    graph = ThreadGraph(name)
    ids = [graph.add_thread(service) for _ in range(n_threads)]
    for a, b in zip(ids, ids[1:]):
        graph.add_dependency(a, b)
    return Job(name, graph, TEST_CURVE, max_workers=workers)


def phased_job(
    name: str,
    n_phases: int,
    threads_per_phase: int,
    service: float,
    workers: int,
) -> Job:
    """Barrier-separated phases (GRAVITY-like)."""
    graph = ThreadGraph(name)
    previous_barrier = None
    for _ in range(n_phases):
        tids = []
        for _ in range(threads_per_phase):
            tid = graph.add_thread(service)
            if previous_barrier is not None:
                graph.add_dependency(previous_barrier, tid)
            tids.append(tid)
        barrier = graph.add_thread(0.0)
        for tid in tids:
            graph.add_dependency(tid, barrier)
        previous_barrier = barrier
    return Job(name, graph, TEST_CURVE, max_workers=workers)
