"""Scenario definition and the open-system experiment runner.

A :class:`Scenario` is a declarative recipe — job source, arrival
process, optional cancellation and failure processes, horizon.
:meth:`Scenario.instantiate` pre-samples the whole timeline from named
:class:`~repro.engine.rng.RngRegistry` substreams into a
:class:`ScenarioInstance` (plain data), and :func:`run_scenario` feeds
that instance through one :class:`~repro.core.system.SchedulingSystem`:
arrivals ride the system's existing ``arrival_times`` path, disruptions
become simulator events against ``cancel_job`` / ``fail_processor`` /
``recover_processor``.

Determinism contract: the instance depends only on
``(scenario name, seed, n_processors)`` — never on the policy (common
random numbers across the policy axis) or on the worker count of the
sweep.  The (scenario × policy × seed) grid runs as a sweep, one cell
per :func:`run_scenario` call; :func:`repro.sweep.cells.matrix_comparison`
folds the cells into a :class:`MatrixComparison`, merging per-cell
metrics in seed order, so ``workers=N`` output is bit-identical to
serial.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.policies.base import Policy
from repro.core.system import SchedulingSystem, SystemResult
from repro.engine.rng import RngRegistry
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.obs.telemetry import HeartbeatEmitter
from repro.threads.job import Job
from repro.workloads.opensys.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
)
from repro.workloads.opensys.disruptions import (
    CancellationProcess,
    CpuOutage,
    FailureProcess,
)
from repro.workloads.opensys.jobsource import AppJobSource, JobSource, lite_source

#: Cancellation and failure events fire after any arrival at the same
#: instant (arrivals use priority 10) — a cancellation *colliding* with
#: its job's arrival cancels an already-arrived job.  Tests cover the
#: opposite order explicitly via a lower priority.
DISRUPTION_PRIORITY = 100


@dataclasses.dataclass(frozen=True)
class ScenarioInstance:
    """One fully-sampled open-system timeline (plain data, policy-free)."""

    name: str
    seed: int
    jobs: typing.Tuple[Job, ...]
    arrival_times: typing.Tuple[float, ...]
    #: (job index, time) pairs
    cancellations: typing.Tuple[typing.Tuple[int, float], ...]
    outages: typing.Tuple[CpuOutage, ...]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A declarative open-system scenario recipe."""

    name: str
    source: JobSource
    arrivals: ArrivalProcess
    horizon_s: float
    #: truncate the arrival stream (0 = unlimited); the run itself always
    #: drains to completion so the trace ends oracle-clean
    max_jobs: int = 0
    cancellations: typing.Optional[CancellationProcess] = None
    failures: typing.Optional[FailureProcess] = None
    note: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenarios need a name")
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if self.max_jobs < 0:
            raise ValueError("max_jobs must be non-negative")

    def instantiate(
        self,
        seed: int,
        n_processors: int = 16,
        machine: MachineSpec = SEQUENT_SYMMETRY,
    ) -> ScenarioInstance:
        """Pre-sample the whole timeline for ``seed``.

        Substreams: ``arrivals`` (times), ``job/<i>`` (each job's shape
        and jitter), ``cancel`` and ``failures`` (disruptions) — all
        under ``opensys/<scenario name>``, so scenarios never share
        randomness and the draw order is independent of consumption
        order.
        """
        registry = RngRegistry(seed).spawn(f"opensys/{self.name}")
        times = self.arrivals.times(registry.stream("arrivals"), self.horizon_s)
        if self.max_jobs:
            times = times[: self.max_jobs]
        if not times:
            raise ValueError(
                f"scenario {self.name!r} produced no arrivals over "
                f"{self.horizon_s}s (seed {seed}); raise the rate or horizon"
            )
        jobs = tuple(
            self.source.make_job(i, registry, n_processors, machine)
            for i in range(len(times))
        )
        cancellations: typing.Tuple[typing.Tuple[int, float], ...] = ()
        if self.cancellations is not None:
            cancellations = self.cancellations.sample(
                registry.stream("cancel"), times
            )
        outages: typing.Tuple[CpuOutage, ...] = ()
        if self.failures is not None:
            outages = self.failures.sample(
                registry.stream("failures"), self.horizon_s, n_processors
            )
        return ScenarioInstance(
            name=self.name,
            seed=seed,
            jobs=jobs,
            arrival_times=tuple(times),
            cancellations=cancellations,
            outages=outages,
        )


#: Anything run_scenario can execute: a Scenario or a pre-built adapter
#: with the same instantiate() surface (e.g. swf.SwfScenario).
ScenarioLike = typing.Union[Scenario, "typing.Any"]


def quantile(sorted_values: typing.Sequence[float], q: float) -> float:
    """Exact order statistic: the smallest value covering fraction ``q``."""
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


@dataclasses.dataclass(frozen=True)
class OpenSystemResult:
    """Outcome of one (scenario, policy, seed) cell."""

    scenario: str
    policy: str
    seed: int
    n_processors: int
    makespan: float
    n_jobs: int
    n_completed: int
    n_cancelled: int
    #: completed jobs' response times, ascending
    response_times: typing.Tuple[float, ...]
    #: processor-seconds of useful work (completed + partial cancelled)
    total_work: float
    total_reallocations: int
    n_failures: int
    #: the underlying closed-system result (exact replay target)
    system: SystemResult

    @property
    def utilization(self) -> float:
        """Useful work over offered capacity, ``work / (P x makespan)``."""
        if self.makespan <= 0:
            return 0.0
        return self.total_work / (self.n_processors * self.makespan)

    def mean_response_time(self) -> float:
        """Mean response time over completed jobs."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)


def run_scenario(
    scenario: ScenarioLike,
    policy: Policy,
    seed: int = 0,
    n_processors: int = 16,
    machine: MachineSpec = SEQUENT_SYMMETRY,
    tracer: typing.Optional[object] = None,
    profiler: typing.Optional[object] = None,
    heartbeat: typing.Optional[HeartbeatEmitter] = None,
) -> OpenSystemResult:
    """Instantiate ``scenario`` for ``seed`` and run it under ``policy``.

    The run drains to completion (no horizon cutoff), so the emitted
    trace satisfies the run-end invariants and replays exactly.
    ``heartbeat`` (a :class:`~repro.obs.telemetry.HeartbeatEmitter`)
    rides the engine trace hook for live progress; it observes only and
    never changes the result.
    """
    instance = scenario.instantiate(seed, n_processors=n_processors, machine=machine)
    registry = RngRegistry(seed)
    system = SchedulingSystem(
        list(instance.jobs),
        policy,
        machine=machine,
        n_processors=n_processors,
        seed=seed,
        rng=registry.spawn(f"system/{policy.name}"),
        arrival_times=list(instance.arrival_times),
        tracer=tracer,
        profiler=profiler,
    )
    for index, when in instance.cancellations:
        job = system.jobs[index]
        system.sim.at(
            when,
            lambda j=job: system.cancel_job(j),
            priority=DISRUPTION_PRIORITY,
            label=f"cancel:{job.name}",
        )
    for outage in instance.outages:
        system.sim.at(
            outage.fail_s,
            lambda c=outage.cpu: system.fail_processor(c),
            priority=DISRUPTION_PRIORITY,
            label=f"cpu_fail:{outage.cpu}",
        )
        system.sim.at(
            outage.recover_s,
            lambda c=outage.cpu: system.recover_processor(c),
            priority=DISRUPTION_PRIORITY,
            label=f"cpu_recover:{outage.cpu}",
        )
    if heartbeat is not None:
        system.sim.add_trace_hook(heartbeat.engine_hook)
    result = system.run()
    if heartbeat is not None:
        heartbeat.finish(result.makespan)
    responses = tuple(sorted(m.response_time for m in result.jobs.values()))
    cancelled_work = sum(
        job.work_done for job in system.jobs if job.cancelled
    )
    return OpenSystemResult(
        scenario=instance.name,
        policy=policy.name,
        seed=seed,
        n_processors=n_processors,
        makespan=result.makespan,
        n_jobs=len(instance.jobs),
        n_completed=len(result.jobs),
        n_cancelled=len(result.cancelled),
        response_times=responses,
        total_work=sum(m.work for m in result.jobs.values()) + cancelled_work,
        total_reallocations=sum(m.n_reallocations for m in result.jobs.values()),
        n_failures=len(instance.outages),
        system=result,
    )


# ---------------------------------------------------------------------- #
# the (policy x scenario x seed) matrix


@dataclasses.dataclass(frozen=True)
class CellSummary:
    """Seed-aggregated summary of one (scenario, policy) cell."""

    scenario: str
    policy: str
    n_jobs: int
    n_completed: int
    n_cancelled: int
    n_failures: int
    mean_response: float
    p50_response: float
    p90_response: float
    p99_response: float
    mean_utilization: float
    total_reallocations: int

    @classmethod
    def from_results(
        cls, results: typing.Sequence[OpenSystemResult]
    ) -> "CellSummary":
        """Pool completed-job response times across the cell's seeds."""
        if not results:
            raise ValueError("a cell needs at least one result")
        pooled = sorted(t for r in results for t in r.response_times)
        mean = sum(pooled) / len(pooled) if pooled else 0.0
        return cls(
            scenario=results[0].scenario,
            policy=results[0].policy,
            n_jobs=sum(r.n_jobs for r in results),
            n_completed=sum(r.n_completed for r in results),
            n_cancelled=sum(r.n_cancelled for r in results),
            n_failures=sum(r.n_failures for r in results),
            mean_response=mean,
            p50_response=quantile(pooled, 0.50),
            p90_response=quantile(pooled, 0.90),
            p99_response=quantile(pooled, 0.99),
            mean_utilization=sum(r.utilization for r in results) / len(results),
            total_reallocations=sum(r.total_reallocations for r in results),
        )


@dataclasses.dataclass(frozen=True)
class MatrixComparison:
    """Everything one open-system or SWF sweep produced."""

    seeds: typing.Tuple[int, ...]
    scenarios: typing.Tuple[str, ...]
    policies: typing.Tuple[str, ...]
    #: (scenario, policy) -> per-seed results, in seed order
    results: typing.Dict[typing.Tuple[str, str], typing.Tuple[OpenSystemResult, ...]]
    cells: typing.Dict[typing.Tuple[str, str], CellSummary]
    #: (scenario, policy) -> merged metrics snapshot (collect_metrics only)
    metrics: typing.Dict[typing.Tuple[str, str], typing.Dict[str, object]]


# ---------------------------------------------------------------------- #
# built-in scenarios


def built_in_scenarios(
    lite: bool = False,
    n_processors: int = 16,
    utilization: float = 0.5,
) -> "typing.Dict[str, Scenario]":
    """The four standard open-system scenario shapes.

    ``steady`` (Poisson at the target utilization), ``bursty`` (on/off
    modulated), ``cancellations`` (steady plus a 30 % cancellation
    stream), and ``failures`` (steady plus CPU outages).  With
    ``lite=True`` jobs come from the small synthetic templates and a
    short horizon — the variant the tier-1 oracle matrix sweeps; the
    default samples the real application specs.
    """
    if lite:
        source: JobSource = lite_source()
        horizon = 6.0
        max_jobs = 40
    else:
        source = AppJobSource.uniform()
        horizon = 400.0
        max_jobs = 12
    mean_work = source.mean_work_s()
    steady = PoissonArrivals.for_utilization(utilization, mean_work, n_processors)
    scenarios = {
        "steady": Scenario(
            name="steady",
            source=source,
            arrivals=steady,
            horizon_s=horizon,
            max_jobs=max_jobs,
            note="Poisson arrivals at the target utilization",
        ),
        "bursty": Scenario(
            name="bursty",
            source=source,
            arrivals=BurstyArrivals(
                burst_rate_per_s=2.0 * steady.rate_per_s,
                idle_rate_per_s=0.1 * steady.rate_per_s,
                mean_burst_s=horizon / 8.0,
                mean_idle_s=horizon / 8.0,
            ),
            horizon_s=horizon,
            max_jobs=max_jobs,
            note="on/off bursts at 2x the steady rate",
        ),
        "cancellations": Scenario(
            name="cancellations",
            source=source,
            arrivals=steady,
            horizon_s=horizon,
            max_jobs=max_jobs,
            cancellations=CancellationProcess(
                probability=0.3, mean_delay_s=0.5 * mean_work
            ),
            note="steady arrivals, ~30% of jobs cancelled mid-flight",
        ),
        "failures": Scenario(
            name="failures",
            source=source,
            arrivals=steady,
            horizon_s=horizon,
            max_jobs=max_jobs,
            failures=FailureProcess(
                rate_per_s=4.0 / horizon,
                mean_repair_s=horizon / 10.0,
                max_concurrent=2,
            ),
            note="steady arrivals under CPU failure/recovery",
        ),
    }
    return scenarios
