"""Property-style sweep: every policy honors the invariants on random mixes.

Each case runs a randomized workload (structure and sizes drawn from the
seed) under one of the five policies or Section 8's two time-sharing
ones, with full tracing, then replays the record stream through the
oracle.  Zero violations and exact aggregate replay are required for
every combination.
"""

import random

import pytest

from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
    TIME_SHARING,
    TIME_SHARING_AFFINITY,
)
from repro.core.system import SchedulingSystem
from repro.obs import Tracer, metrics_from_records
from repro.obs.invariants import check_trace
from repro.obs.replay import verify_replay
from tests.core.helpers import chain_job, flat_job, phased_job

ALL_POLICIES = (
    EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_DELAY, DYN_AFF_NOPRI,
    TIME_SHARING, TIME_SHARING_AFFINITY,
)


def random_mix(seed: int):
    """A small random job mix: 2-3 jobs of random structure and size."""
    rng = random.Random(seed)
    jobs = []
    for i in range(rng.randint(2, 3)):
        name = f"J{i}"
        shape = rng.choice(("flat", "chain", "phased"))
        workers = rng.randint(2, 4)
        service = rng.uniform(0.1, 0.6)
        if shape == "flat":
            jobs.append(flat_job(name, rng.randint(4, 10), service, workers))
        elif shape == "chain":
            jobs.append(chain_job(name, rng.randint(3, 6), service))
        else:
            jobs.append(phased_job(name, rng.randint(2, 4), rng.randint(3, 6),
                                   service, workers))
    return jobs


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("mix_seed", [11, 22, 33])
@pytest.mark.parametrize("run_seed", [0, 1, 2])
def test_policy_trace_honors_all_invariants(policy, mix_seed, run_seed):
    tracer = Tracer()
    system = SchedulingSystem(
        random_mix(mix_seed), policy, n_processors=8, seed=run_seed, tracer=tracer,
    )
    result = system.run()

    found = check_trace(tracer.records)
    assert found == [], f"{policy.name} mix={mix_seed} seed={run_seed}: {found[:3]}"

    replay_errors = verify_replay(tracer.records, result)
    assert replay_errors == [], replay_errors[:3]

    # The metrics agree with the aggregates, not just the trace.
    snapshot = metrics_from_records(tracer.records).snapshot()
    assert snapshot["counters"]["jobs/completed"] == len(result.jobs)
    total_reallocs = sum(m.n_reallocations for m in result.jobs.values())
    assert snapshot["counters"]["dispatch/reallocations"] == total_reallocs
