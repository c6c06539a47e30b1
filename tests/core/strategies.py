"""Hypothesis strategies for small disrupted workloads.

A :class:`DisruptedWorkload` is plain data (graph shapes, arrivals,
policy, machine size, cancellations and CPU outages), so one drawn
example can build any number of identical, independent systems: the
allocator differential runs it twice, once per allocator.
"""

from __future__ import annotations

import dataclasses
import typing

from hypothesis import strategies as st

from repro.core.policies import POLICIES
from repro.core.policies.base import Policy
from repro.core.system import SchedulingSystem
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job
from repro.workloads.opensys.scenario import DISRUPTION_PRIORITY
from tests.core.helpers import TEST_CURVE

#: (service times, dependency edges, worker pool size) of one job
JobShape = typing.Tuple[typing.Tuple[float, ...], typing.Tuple[typing.Tuple[int, int], ...], int]


@dataclasses.dataclass(frozen=True)
class DisruptedWorkload:
    shapes: typing.Tuple[JobShape, ...]
    arrivals: typing.Tuple[float, ...]
    policy: Policy
    n_processors: int
    seed: int
    #: (job index, cancellation time)
    cancellations: typing.Tuple[typing.Tuple[int, float], ...]
    #: (cpu, fail time, recover time); at most one window per cpu
    outages: typing.Tuple[typing.Tuple[int, float, float], ...]

    def build(self, tracer: typing.Optional[object] = None) -> SchedulingSystem:
        """A fresh system with every disruption scheduled, not yet run."""
        jobs = []
        for index, (services, edges, workers) in enumerate(self.shapes):
            graph = ThreadGraph(f"J{index}")
            for service in services:
                graph.add_thread(service)
            for a, b in edges:
                graph.add_dependency(a, b)
            jobs.append(Job(f"J{index}", graph, TEST_CURVE, max_workers=workers))
        system = SchedulingSystem(
            jobs, self.policy, n_processors=self.n_processors, seed=self.seed,
            arrival_times=list(self.arrivals), tracer=tracer,
        )
        for index, when in self.cancellations:
            job = system.jobs[index]
            system.sim.at(when, lambda j=job: system.cancel_job(j),
                          priority=DISRUPTION_PRIORITY, label=f"cancel:{job.name}")
        for cpu, fail, recover in self.outages:
            system.sim.at(fail, lambda c=cpu: system.fail_processor(c),
                          priority=DISRUPTION_PRIORITY, label=f"cpu_fail:{cpu}")
            system.sim.at(recover, lambda c=cpu: system.recover_processor(c),
                          priority=DISRUPTION_PRIORITY, label=f"cpu_recover:{cpu}")
        return system


_SERVICE = st.floats(min_value=0.01, max_value=1.0)

#: The five paper policies plus history-ablation variants: with the
#: paper's depth-1 histories rule A.1 can never fire (the last task on a
#: freshly released processor is the idle one that released it).
_POLICIES = list(POLICIES.values()) + [
    dataclasses.replace(POLICIES[name], name=f"{name}-H3", history_depth=3)
    for name in ("Dyn-Aff", "Dyn-Aff-NoPri", "Dyn-Aff-Delay")
]


@st.composite
def job_shapes(draw) -> JobShape:
    """A fan, chain, or barrier-phased graph and its worker pool."""
    shape = draw(st.sampled_from(["fan", "chain", "phases"]))
    edges: typing.List[typing.Tuple[int, int]] = []
    if shape == "fan":
        services = draw(st.lists(_SERVICE, min_size=2, max_size=24))
    elif shape == "chain":
        services = draw(st.lists(_SERVICE, min_size=1, max_size=8))
        edges = [(i, i + 1) for i in range(len(services) - 1)]
    else:
        services = []
        barrier = None
        for _ in range(draw(st.integers(1, 4))):
            phase = draw(st.lists(_SERVICE, min_size=2, max_size=8))
            tids = list(range(len(services), len(services) + len(phase)))
            services.extend(phase)
            if barrier is not None:
                edges.extend((barrier, tid) for tid in tids)
            barrier = len(services)
            services.append(0.0)
            edges.extend((tid, barrier) for tid in tids)
    return tuple(services), tuple(edges), draw(st.integers(1, 6))


@st.composite
def disrupted_workloads(draw) -> DisruptedWorkload:
    """2-4 jobs under any policy, with optional cancellations and outages."""
    shapes = tuple(draw(st.lists(job_shapes(), min_size=2, max_size=4)))
    n_jobs = len(shapes)
    when = st.floats(min_value=0.0, max_value=2.0)
    arrivals = tuple(draw(st.lists(when, min_size=n_jobs, max_size=n_jobs)))
    n_processors = draw(st.integers(1, 6))
    cancelled = draw(st.lists(st.integers(0, n_jobs - 1), unique=True, max_size=n_jobs))
    cancellations = tuple((index, draw(when)) for index in cancelled)
    outages = []
    if n_processors > 1:
        cpus = draw(st.lists(st.integers(0, n_processors - 1), unique=True,
                             max_size=n_processors - 1))
        for cpu in cpus:
            fail = draw(when)
            outages.append((cpu, fail, fail + draw(st.floats(min_value=0.01, max_value=2.0))))
    return DisruptedWorkload(
        shapes=shapes,
        arrivals=arrivals,
        policy=draw(st.sampled_from(_POLICIES)),
        n_processors=n_processors,
        seed=draw(st.integers(0, 1000)),
        cancellations=cancellations,
        outages=tuple(outages),
    )
