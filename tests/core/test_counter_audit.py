"""Counter audit: the incremental scheduling state equals a full rescan.

Before every fired event of a generated run (and once after the last),
recompute from ``allocator.procs`` and ``job.workers`` what the
scheduling core keeps incrementally — owned, busy and held-idle
processors per job, per-state worker counts, the free, busy and willing
sets — and require equality.  Checking before each event is checking
after the previous one, so every state the run passes through between
events is audited.  The run queue (time sharing) holds each waiting
worker once, suspended with a thread, and only while its job is live.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.policies import POLICIES, TIME_SHARING, TIME_SHARING_AFFINITY
from repro.core.system import SchedulingSystem
from repro.threads.workers import WorkerState
from tests.core.strategies import DisruptedWorkload, disrupted_workloads

#: the five paper policies and Section 8's two time-sharing ones
AUDITED = {
    **POLICIES,
    **{p.name: p for p in (TIME_SHARING, TIME_SHARING_AFFINITY)},
}


def _mask(procs) -> int:
    return sum(p.bit for p in procs)


def audit(system: SchedulingSystem) -> None:
    allocator = system.allocator
    procs = allocator.procs
    assert allocator.free_mask == _mask(p for p in procs if p.is_free)
    assert allocator.busy_mask == _mask(p for p in procs if p.is_busy)
    assert allocator.willing_mask == _mask(p for p in procs if p.is_willing_to_yield)
    # A yield window exists only on a held-idle processor.
    assert allocator.willing_mask == _mask(p for p in procs if p.yield_handle is not None)
    for job in system.jobs:
        owned = [p for p in procs if p.job is job]
        held = [p for p in owned if p.is_held_idle]
        assert job.n_owned == len(owned) == allocator.allocation(job)
        assert job.owned_mask == _mask(owned)
        assert job.n_busy == sum(1 for p in owned if p.is_busy)
        assert job.owned_mask & ~allocator.busy_mask == _mask(held)
        assert job.n_owned - job.n_busy == len(held)
        states = [w.state for w in job.workers]
        assert job.n_running == states.count(WorkerState.RUNNING)
        assert job.n_suspended == states.count(WorkerState.SUSPENDED)
    queue = allocator.run_queue
    assert len(set(queue)) == len(queue)
    for worker in queue:
        assert worker.state is WorkerState.SUSPENDED
        assert worker.current_thread is not None
        assert worker.job in allocator.jobs
    if system.policy.is_time_sharing:
        # Every waiting worker is queued, and a processor is held only
        # while it runs a worker.
        assert set(queue) == {
            w for job in allocator.jobs for w in job.workers
            if w.state is WorkerState.SUSPENDED
        }
        assert allocator.busy_mask == sum(p.bit for p in procs if p.job is not None)


@pytest.mark.parametrize("policy", list(AUDITED), ids=str)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(disrupted_workloads())
def test_incremental_state_matches_rescan_after_every_event(
    policy: str, workload: DisruptedWorkload
):
    system = dataclasses.replace(workload, policy=AUDITED[policy]).build()
    audited = []
    system.sim.add_trace_hook(lambda _time, label: (audit(system), audited.append(label)))
    system.run()
    audit(system)
    assert len(audited) == system.sim.events_fired
