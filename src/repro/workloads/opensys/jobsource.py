"""Job sources: where an open-system scenario's jobs come from.

A :class:`JobSource` maps an arrival index to a concrete
:class:`~repro.threads.job.Job`, drawing any per-job randomness (template
choice, service jitter) from its own ``job/<index>`` substream of the
scenario's :class:`~repro.engine.rng.RngRegistry` — so the job stream is
identical no matter which policy, worker count, or chunking consumes it.

Two implementations:

* :class:`AppJobSource` samples the repo's real application specs
  (MVA / MATRIX / GRAVITY) by weight — the paper's workloads under open
  arrivals.  Real app graphs are hundreds of threads, so this is the CLI
  default but too slow for a 60-cell test matrix.
* :class:`TemplateJobSource` samples small synthetic
  :class:`JobTemplate` graphs mirroring the three application shapes
  (flat / chain / barrier-phased).  The built-in *lite* scenarios use it
  so the oracle sweep stays tier-1 fast.

Both are frozen dataclasses holding only plain values, so scenarios
pickle cleanly into the parallel runner's worker processes.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import typing

from repro.engine.rng import RngRegistry
from repro.machine.footprint import FootprintCurve
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job

_SHAPES = ("flat", "chain", "phased")
#: symmetric service jitter: mean stays at the template's service_s
_JITTER = 0.2


class JobSource:
    """Interface: index -> Job, plus the mean work used for load targeting."""

    def make_job(
        self,
        index: int,
        registry: RngRegistry,
        n_processors: int,
        machine: MachineSpec,
    ) -> Job:
        """Build the ``index``-th job of the stream."""
        raise NotImplementedError

    def mean_work_s(self) -> float:
        """Expected total processor-seconds per job (for utilization targets)."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class JobTemplate:
    """One synthetic job shape a :class:`TemplateJobSource` can sample.

    ``shape`` is ``flat`` (independent threads, MATRIX-like), ``chain``
    (sequential, MVA-like) or ``phased`` (barrier-separated phases,
    GRAVITY-like).  ``service_s`` is the mean per-thread service time;
    each thread is jittered uniformly within ±20 %.
    """

    name: str
    shape: str
    threads: int
    service_s: float
    workers: int
    phases: int = 1
    weight: float = 1.0
    w_max: float = 2000.0
    tau: float = 0.05

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if "-" in self.name:
            raise ValueError("template names must not contain '-' (instance separator)")
        if self.threads <= 0 or self.workers <= 0 or self.phases <= 0:
            raise ValueError("threads, workers and phases must be positive")
        if self.service_s <= 0 or self.weight <= 0:
            raise ValueError("service_s and weight must be positive")

    def total_work_s(self) -> float:
        """Mean total processor-seconds of one instance."""
        n = self.threads * (self.phases if self.shape == "phased" else 1)
        return n * self.service_s

    def build(self, job_name: str, rng: random.Random, workers: int) -> Job:
        """Instantiate one jittered job from this template."""
        graph = ThreadGraph(job_name)
        jitter = lambda: self.service_s * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER)
        if self.shape == "flat":
            for _ in range(self.threads):
                graph.add_thread(jitter())
        elif self.shape == "chain":
            ids = [graph.add_thread(jitter()) for _ in range(self.threads)]
            for a, b in zip(ids, ids[1:]):
                graph.add_dependency(a, b)
        else:  # phased
            previous_barrier = None
            for _ in range(self.phases):
                tids = []
                for _ in range(self.threads):
                    tid = graph.add_thread(jitter())
                    if previous_barrier is not None:
                        graph.add_dependency(previous_barrier, tid)
                    tids.append(tid)
                barrier = graph.add_thread(0.0)
                for tid in tids:
                    graph.add_dependency(tid, barrier)
                previous_barrier = barrier
        curve = FootprintCurve(w_max=self.w_max, tau=self.tau)
        return Job(job_name, graph, curve, max_workers=workers)


@dataclasses.dataclass(frozen=True)
class TemplateJobSource(JobSource):
    """Samples :class:`JobTemplate` instances by weight."""

    templates: typing.Tuple[JobTemplate, ...]

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("need at least one template")
        names = [t.name for t in self.templates]
        if len(set(names)) != len(names):
            raise ValueError(f"template names must be unique, got {names}")

    def make_job(
        self,
        index: int,
        registry: RngRegistry,
        n_processors: int,
        machine: MachineSpec,
    ) -> Job:
        rng = registry.stream(f"job/{index}")
        weights = [t.weight for t in self.templates]
        template = rng.choices(self.templates, weights=weights, k=1)[0]
        workers = min(template.workers, n_processors)
        return template.build(f"{template.name}-{index}", rng, workers)

    def mean_work_s(self) -> float:
        total_weight = sum(t.weight for t in self.templates)
        return (
            sum(t.weight * t.total_work_s() for t in self.templates) / total_weight
        )


@dataclasses.dataclass(frozen=True)
class AppJobSource(JobSource):
    """Samples the repo's real application specs (``repro.apps``) by weight.

    Holds only app *names* so instances pickle; specs are looked up in
    :data:`repro.apps.APPLICATIONS` at build time.  ``mean_work_s`` is
    calibrated by building a few sample graphs per app with fixed seeds
    (deterministic, recomputed identically in any process), once per
    distinct source in a process: every full open-system cell builds an
    equal source, so later cells reuse the first one's calibration.
    """

    weights: typing.Tuple[typing.Tuple[str, float], ...]
    calibration_samples: int = 3

    def __post_init__(self) -> None:
        from repro.apps import APPLICATIONS

        if not self.weights:
            raise ValueError("need at least one application")
        for name, weight in self.weights:
            if name not in APPLICATIONS:
                raise ValueError(
                    f"unknown application {name!r} (have {sorted(APPLICATIONS)})"
                )
            if weight <= 0:
                raise ValueError(f"weight for {name!r} must be positive")
        if self.calibration_samples <= 0:
            raise ValueError("calibration_samples must be positive")

    @classmethod
    def uniform(cls) -> "AppJobSource":
        """Equal weight on every registered application."""
        from repro.apps import APPLICATIONS

        return cls(weights=tuple((name, 1.0) for name in sorted(APPLICATIONS)))

    def make_job(
        self,
        index: int,
        registry: RngRegistry,
        n_processors: int,
        machine: MachineSpec,
    ) -> Job:
        from repro.apps import APPLICATIONS

        rng = registry.stream(f"job/{index}")
        names = [name for name, _ in self.weights]
        weights = [weight for _, weight in self.weights]
        spec = APPLICATIONS[rng.choices(names, weights=weights, k=1)[0]]
        return spec.make_job(
            rng, instance=index, n_processors=n_processors, machine=machine
        )

    @functools.lru_cache(maxsize=None)
    def mean_work_s(self) -> float:
        from repro.apps import APPLICATIONS

        total_weight = sum(weight for _, weight in self.weights)
        mean = 0.0
        for name, weight in self.weights:
            spec = APPLICATIONS[name]
            works = [
                spec.build_graph(random.Random(f"calibrate/{name}/{k}")).total_work()
                for k in range(self.calibration_samples)
            ]
            mean += weight * (sum(works) / len(works))
        return mean / total_weight


def lite_source() -> TemplateJobSource:
    """The standard small synthetic mix mirroring the three app shapes."""
    return TemplateJobSource(
        templates=(
            JobTemplate(
                name="FLAT", shape="flat", threads=6, service_s=0.08, workers=4
            ),
            JobTemplate(
                name="CHAIN", shape="chain", threads=5, service_s=0.06, workers=1
            ),
            JobTemplate(
                name="PHASE",
                shape="phased",
                threads=4,
                service_s=0.05,
                workers=4,
                phases=3,
            ),
        )
    )
