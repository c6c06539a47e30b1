"""Running workload mixes under policies (the Section 6 experiments).

:func:`run_mix` runs one mix once under one policy.  Replications —
every policy on the same workload seeds — are fanned out, cached and
resumed by :func:`repro.sweep.run_sweep` (one ``mix`` cell per (mix,
policy, seed)); :func:`repro.sweep.cells.mix_comparison` then summarizes
their payloads, in seed order, into the :class:`MixComparison` the
Figure 5/6 and Table 3 renderers consume.  Every figure runs a fixed
replication count.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.policies.base import Policy
from repro.core.system import JobMetrics, SchedulingSystem, SystemResult
from repro.engine.rng import RngRegistry
from repro.engine.stats import ConfidenceInterval, SampleStats
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.measure.workloads import WorkloadMix, make_jobs
from repro.obs.telemetry import HeartbeatEmitter

#: Default processor count: the paper profiles and schedules on 16 of the
#: Symmetry's 20 processors (the rest ran the OS and the allocator).
DEFAULT_PROCESSORS = 16


def run_mix(
    mix: typing.Union[int, WorkloadMix],
    policy: Policy,
    seed: int = 0,
    n_processors: int = DEFAULT_PROCESSORS,
    machine: MachineSpec = SEQUENT_SYMMETRY,
    tracer: typing.Optional[object] = None,
    heartbeat: typing.Optional[HeartbeatEmitter] = None,
) -> SystemResult:
    """Run one mix once under one policy; returns per-job metrics.

    The workload RNG stream is derived from ``seed`` but *not* from the
    policy, so different policies scheduling the same seed see the same
    jobs — the common-random-numbers pairing the paper's relative response
    times rely on.  ``tracer`` attaches the observability layer to the
    run; it defaults to off (the null fast path).
    ``heartbeat`` streams live progress snapshots (observation only —
    results are unchanged).
    """
    rng = RngRegistry(seed)
    jobs = make_jobs(mix, rng.spawn("workload"), n_processors=n_processors, machine=machine)
    system = SchedulingSystem(
        jobs,
        policy,
        machine=machine,
        n_processors=n_processors,
        seed=seed,
        rng=rng.spawn(f"system/{policy.name}"),
        tracer=tracer,
    )
    if heartbeat is not None:
        system.sim.add_trace_hook(heartbeat.engine_hook)
    result = system.run()
    if heartbeat is not None:
        heartbeat.finish(result.makespan)
    return result


@dataclasses.dataclass(frozen=True)
class JobSummary:
    """Replication-averaged metrics for one job under one policy."""

    name: str
    response_time: ConfidenceInterval
    n_reallocations: float
    pct_affinity: float
    reallocation_interval: float
    work: float
    waste: float
    average_allocation: float

    @classmethod
    def from_samples(
        cls, name: str, samples: typing.Sequence[JobMetrics]
    ) -> "JobSummary":
        """Average one job's per-replication metrics, in the order given."""
        rt = SampleStats()
        for m in samples:
            rt.add(m.response_time)
        n = len(samples)
        return cls(
            name=name,
            response_time=rt.confidence_interval(),
            n_reallocations=sum(m.n_reallocations for m in samples) / n,
            pct_affinity=sum(m.pct_affinity for m in samples) / n,
            reallocation_interval=sum(m.reallocation_interval for m in samples) / n,
            work=sum(m.work for m in samples) / n,
            waste=sum(m.waste for m in samples) / n,
            average_allocation=sum(m.average_allocation for m in samples) / n,
        )

    @property
    def app(self) -> str:
        """Application name (job name without instance suffix)."""
        return self.name.split("-")[0]


@dataclasses.dataclass(frozen=True)
class MixComparison:
    """One mix run under several policies with replications."""

    mix: WorkloadMix
    n_replications: int
    summaries: typing.Dict[str, typing.Dict[str, JobSummary]]  # policy -> job -> summary
    #: policy -> merged metrics snapshot (empty unless collect_metrics)
    metrics: typing.Dict[str, dict] = dataclasses.field(default_factory=dict)
    #: policy -> merged wall-clock profile (empty unless collect_profile)
    profiles: typing.Dict[str, dict] = dataclasses.field(default_factory=dict)

    def policies(self) -> typing.List[str]:
        """Policy names present."""
        return list(self.summaries)

    def job_names(self) -> typing.List[str]:
        """Job names (consistent across policies)."""
        first = next(iter(self.summaries.values()))
        return list(first)

    def relative_response_time(self, policy: str, job: str, baseline: str) -> float:
        """RT under ``policy`` divided by RT under ``baseline`` for ``job``."""
        rt = self.summaries[policy][job].response_time.mean
        base = self.summaries[baseline][job].response_time.mean
        return rt / base

    def mean_response_time(self, policy: str) -> float:
        """Average of per-job mean response times under ``policy``."""
        jobs = self.summaries[policy]
        return sum(s.response_time.mean for s in jobs.values()) / len(jobs)


def relative_response_times(
    comparison: MixComparison,
    baseline: str = "Equipartition",
) -> typing.Dict[str, typing.Dict[str, float]]:
    """Figure 5/6 data: RT relative to ``baseline``, per policy per job."""
    if baseline not in comparison.summaries:
        raise KeyError(f"baseline policy {baseline!r} was not run")
    out: typing.Dict[str, typing.Dict[str, float]] = {}
    for policy in comparison.policies():
        if policy == baseline:
            continue
        out[policy] = {
            job: comparison.relative_response_time(policy, job, baseline)
            for job in comparison.job_names()
        }
    return out
