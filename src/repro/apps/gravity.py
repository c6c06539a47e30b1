"""The GRAVITY application: Barnes-Hut N-body simulation.

Figure 4's application implements the Barnes & Hut clustering algorithm
for gravitational interaction.  Each simulated time step repeats five
phases — the first sequential (tree build), the remaining four parallel —
with a barrier synchronization between the parallel phases at which the
parallelism briefly drops to one.  Thread execution times differ across
phases, and within some phases depend on synchronization delays for
critical sections.

The real quadtree N-body computation is implemented in
:mod:`repro.kernels.barnes_hut`.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.apps.base import AppSpec
from repro.apps.reference import ReferenceSpec
from repro.threads.graph import ThreadGraph
from repro.threads.sync import CriticalSectionModel, add_barrier


@dataclasses.dataclass(frozen=True)
class GravityPhase:
    """One parallel phase of a time step."""

    name: str
    n_threads: int
    mean_service_s: float
    service_jitter: float = 0.3
    #: fraction of thread time inside a shared critical section
    critical_fraction: float = 0.0


@dataclasses.dataclass(frozen=True)
class GravityParams:
    """Structural knobs of the GRAVITY workload."""

    n_timesteps: int = 50
    #: the Barnes-Hut tree build: a substantial sequential fraction
    sequential_service_s: float = 0.20
    #: fine-grained parallel phases — "this encourages the use of many
    #: threads, which are supported by a smaller, fixed number of workers"
    phases: typing.Tuple[GravityPhase, ...] = (
        GravityPhase("partition", n_threads=96, mean_service_s=0.020),
        GravityPhase("force", n_threads=128, mean_service_s=0.015),
        GravityPhase("update", n_threads=128, mean_service_s=0.015, critical_fraction=0.008),
        GravityPhase("collect", n_threads=64, mean_service_s=0.010),
    )


class GravitySpec(AppSpec):
    """GRAVITY: large slowly-built footprint, bursty barrier-phase parallelism."""

    name = "GRAVITY"
    description = (
        "Barnes-Hut N-body; 5 phases per time step (1 sequential + 4 "
        "parallel) with barriers between, variable thread times"
    )

    #: Calibrated against Table 1's GRAVITY row: a tiny hot set (the
    #: current tree path) with a fast (~17k lines/s) walk over the body
    #: and tree data — the smallest penalty at Q = 25 ms (little touched
    #: yet) but the largest at Q = 400 ms (nearly everything touched).
    _REFERENCE = ReferenceSpec(
        data_blocks=3250,
        p_reuse=0.966,
        refs_per_touch=16,
        reuse_window=64,
        cold_pattern="sequential",
    )

    def __init__(self, params: GravityParams = GravityParams()) -> None:
        if params.n_timesteps < 1:
            raise ValueError("need at least one time step")
        if not params.phases:
            raise ValueError("need at least one parallel phase")
        self.params = params

    @property
    def reference(self) -> ReferenceSpec:
        return self._REFERENCE

    def max_parallelism_hint(self) -> int:
        return max(phase.n_threads for phase in self.params.phases)

    def build_graph(self, rng: random.Random) -> ThreadGraph:
        """Chain of time steps, each: sequential -> 4 barrier-separated phases."""
        p = self.params
        graph = ThreadGraph(name=self.name)
        random = rng.random
        shapes = [
            (
                phase,
                CriticalSectionModel(phase.critical_fraction).inflation(phase.n_threads),
                range(phase.n_threads),
            )
            for phase in p.phases
        ]
        previous_join: typing.Optional[int] = None
        for step in range(p.n_timesteps):
            sequential = graph.add_thread(
                p.sequential_service_s, phase=f"step{step}/treebuild"
            )
            if previous_join is not None:
                graph.add_dependency(previous_join, sequential)
            fan_in = sequential
            for phase, inflation, partitions in shapes:
                mean, spread = phase.mean_service_s, phase.service_jitter
                # One draw per thread, in thread order; each service is
                # CriticalSectionModel.inflated_service of the jittered
                # mean, base + inflation * base.
                services = []
                for _ in partitions:
                    base = mean * (1.0 + spread * (2.0 * random() - 1.0))
                    services.append(base + inflation * base)
                # Thread i of every phase and time step works on body
                # partition i: the data-affinity tag the user-level
                # thread layer can exploit (Section 9 future work).
                thread_ids = graph.add_fan(
                    fan_in, services, f"step{step}/{phase.name}", partitions
                )
                fan_in = add_barrier(
                    graph, thread_ids, phase=f"step{step}/{phase.name}-barrier"
                )
            previous_join = fan_in
        return graph


#: Default instance used by the paper's workload mixes.
GRAVITY = GravitySpec()
