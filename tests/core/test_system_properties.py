"""Property-based stress: random workloads through the full system.

Whatever the workload shape, policy, or seed, the scheduling system must
preserve a set of conservation and sanity invariants.  These tests
generate random job sets (graph shapes, service times, worker pools,
arrival times) and check every invariant after running to completion.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
)
from repro.core.system import SchedulingSystem
from repro.machine.footprint import FootprintCurve
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job
from tests.core.helpers import critical_path

ALL_POLICIES = [EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_NOPRI, DYN_AFF_DELAY]

CURVE = FootprintCurve(w_max=800, tau=0.05)


@st.composite
def random_job(draw, name):
    """A random small job: fan, chain, or barrier-phased graph."""
    shape = draw(st.sampled_from(["fan", "chain", "phases"]))
    graph = ThreadGraph(name)
    service = lambda: draw(st.floats(min_value=0.01, max_value=1.0))
    if shape == "fan":
        for _ in range(draw(st.integers(1, 12))):
            graph.add_thread(service())
    elif shape == "chain":
        ids = [graph.add_thread(service()) for _ in range(draw(st.integers(1, 8)))]
        for a, b in zip(ids, ids[1:]):
            graph.add_dependency(a, b)
    else:
        previous = None
        for _ in range(draw(st.integers(1, 3))):
            tids = [graph.add_thread(service()) for _ in range(draw(st.integers(1, 6)))]
            if previous is not None:
                for tid in tids:
                    graph.add_dependency(previous, tid)
            barrier = graph.add_thread(0.0)
            for tid in tids:
                graph.add_dependency(tid, barrier)
            previous = barrier
    workers = draw(st.integers(1, 4))
    return Job(name, graph, CURVE, max_workers=workers)


@st.composite
def random_workload(draw):
    n_jobs = draw(st.integers(1, 4))
    jobs = [draw(random_job(f"J{i}")) for i in range(n_jobs)]
    arrivals = [
        draw(st.floats(min_value=0.0, max_value=2.0)) for _ in range(n_jobs)
    ]
    policy = draw(st.sampled_from(ALL_POLICIES))
    n_processors = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 1000))
    return jobs, arrivals, policy, n_processors, seed


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_workload())
def test_property_system_invariants(workload):
    jobs, arrivals, policy, n_processors, seed = workload
    expected_work = {job.name: job.graph.total_work() for job in jobs}
    system = SchedulingSystem(
        jobs,
        policy,
        n_processors=n_processors,
        seed=seed,
        arrival_times=arrivals,
    )
    result = system.run()

    assert set(result.jobs) == {job.name for job in jobs}, "every job completes"
    for job, arrival in zip(jobs, arrivals):
        metrics = result.jobs[job.name]
        # Work conservation: every thread ran exactly once.
        assert metrics.work == pytest.approx(expected_work[job.name], rel=1e-9)
        # Response time bounds: at least the critical path, at most the
        # whole machine-serialized workload plus overheads.
        assert metrics.response_time >= critical_path(job.graph) - 1e-9
        assert metrics.response_time <= result.makespan - arrival + 1e-9
        # Accounting sanity.
        assert metrics.waste >= 0.0
        assert metrics.cache_penalty_total >= 0.0
        assert 0.0 <= metrics.pct_affinity <= 100.0
        assert 0 < metrics.average_allocation <= n_processors + 1e-9
        # The held processor-time covers everything the job consumed.
        held = metrics.average_allocation * metrics.response_time
        used = (
            metrics.work
            + metrics.waste
            + metrics.switch_overhead_total
            + metrics.cache_penalty_total
        )
        assert held >= used - 1e-6

    # Machine capacity: total held processor-seconds cannot exceed the
    # machine's capacity over the makespan.
    total_held = sum(
        m.average_allocation * m.response_time for m in result.jobs.values()
    )
    assert total_held <= n_processors * result.makespan + 1e-6


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_workload())
def test_property_no_worker_leaks(workload):
    """After completion every worker is idle and every processor free."""
    jobs, arrivals, policy, n_processors, seed = workload
    system = SchedulingSystem(
        jobs, policy, n_processors=n_processors, seed=seed, arrival_times=arrivals
    )
    system.run()
    from repro.threads.workers import WorkerState

    for job in jobs:
        for worker in job.workers:
            assert worker.state != WorkerState.RUNNING
            assert worker.completion_handle is None
    for proc in system.allocator.procs:
        assert proc.is_free
        assert proc.yield_handle is None
