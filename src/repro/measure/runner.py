"""Running workload mixes under policies (the Section 6 experiments).

:func:`run_mix` runs one mix once under one policy.  Replications —
every policy on the same workload seeds — are fanned out, cached and
resumed by :func:`repro.sweep.run_sweep` (one ``mix`` cell per (mix,
policy, seed)); :func:`comparison_from_replications` then summarizes
them, in seed order, into the :class:`MixComparison` the Figure 5/6 and
Table 3 renderers consume.  Every figure runs a fixed replication count.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.policies.base import Policy
from repro.core.system import JobMetrics, SchedulingSystem, SystemResult
from repro.engine.rng import RngRegistry
from repro.engine.stats import ConfidenceInterval, SampleStats
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.measure.workloads import MIXES, WorkloadMix, make_jobs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import SpanProfiler
from repro.obs.telemetry import HeartbeatEmitter

#: One replication's outcome: policy name -> job name -> metrics.
ReplicationResult = typing.Dict[str, typing.Dict[str, JobMetrics]]

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
    metrics: typing.Optional[MetricsRegistry] = None,
    profiler: typing.Optional[object] = None,
    heartbeat: typing.Optional[HeartbeatEmitter] = None,
) -> SystemResult:
    """Run one mix once under one policy; returns per-job metrics.

    The workload RNG stream is derived from ``seed`` but *not* from the
    policy, so different policies scheduling the same seed see the same
    jobs — the common-random-numbers pairing the paper's relative response
    times rely on.  ``tracer``/``metrics``/``profiler`` attach the
    observability layer to the run; all default to off (the null fast
    path).  ``heartbeat`` streams live progress snapshots (observation
    only — results are unchanged).
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
        metrics=metrics,
        profiler=profiler,
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

    @property
    def app(self) -> str:
        """Application name (job name without instance suffix)."""
        return self.name.split("-")[0]


@dataclasses.dataclass(frozen=True)
class Replication:
    """One replication: per-job outcomes, plus optional metrics snapshots.

    ``metrics`` maps policy name to a :meth:`MetricsRegistry.snapshot`
    dict; it is empty unless the comparison was asked to collect metrics.
    ``profile`` maps policy name to a :meth:`SpanProfiler.snapshot` dict
    (wall-clock simulator self-profile; empty unless collected).
    """

    jobs: ReplicationResult
    metrics: typing.Dict[str, dict] = dataclasses.field(default_factory=dict)
    profile: typing.Dict[str, dict] = dataclasses.field(default_factory=dict)


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


def _collect(
    results: typing.Sequence[Replication],
) -> typing.Dict[str, typing.Dict[str, typing.List[JobMetrics]]]:
    """Regroup ordered replication results into policy -> job -> samples."""
    collected: typing.Dict[str, typing.Dict[str, typing.List[JobMetrics]]] = {}
    for result in results:
        for policy_name, jobs in result.jobs.items():
            per_job = collected.setdefault(policy_name, {})
            for name, metrics in jobs.items():
                per_job.setdefault(name, []).append(metrics)
    return collected


def _summaries_from(
    results: typing.Sequence[Replication],
) -> typing.Dict[str, typing.Dict[str, JobSummary]]:
    return {
        policy_name: {
            name: _summarize(name, samples) for name, samples in jobs.items()
        }
        for policy_name, jobs in _collect(results).items()
    }


def _merged_metrics(
    results: typing.Sequence[Replication],
) -> typing.Dict[str, dict]:
    """Merge per-replication snapshots, policy by policy.

    ``results`` is in seed order and :meth:`MetricsRegistry.merged` folds
    snapshots in the order given, so the merged snapshot does not depend
    on which worker ran which replication.
    """
    per_policy: typing.Dict[str, typing.List[dict]] = {}
    for result in results:
        for policy_name, snapshot in result.metrics.items():
            per_policy.setdefault(policy_name, []).append(snapshot)
    return {
        name: MetricsRegistry.merged(snapshots)
        for name, snapshots in per_policy.items()
    }


def _merged_profiles(
    results: typing.Sequence[Replication],
) -> typing.Dict[str, dict]:
    """Merge per-replication wall-clock profiles, policy by policy.

    Unlike metrics, profile *values* are wall-clock measurements and vary
    run to run; only the span names and call counts are deterministic.
    """
    per_policy: typing.Dict[str, typing.List[dict]] = {}
    for result in results:
        for policy_name, snapshot in result.profile.items():
            per_policy.setdefault(policy_name, []).append(snapshot)
    return {
        name: SpanProfiler.merged(snapshots)
        for name, snapshots in per_policy.items()
    }


def comparison_from_replications(
    mix: typing.Union[int, WorkloadMix],
    replications: typing.Sequence[Replication],
) -> MixComparison:
    """Assemble a :class:`MixComparison` from pre-computed replications.

    The sweep layer's entry point: :func:`repro.sweep.cells.mix_comparison`
    rebuilds ``Replication`` objects from cell payloads, cached or fresh,
    and summarizes them here.  ``replications`` must be in seed order
    (merge order is part of the determinism contract).
    """
    if isinstance(mix, int):
        mix = MIXES[mix]
    results = list(replications)
    if not results:
        raise ValueError("need at least one replication")
    return MixComparison(
        mix=mix,
        n_replications=len(results),
        summaries=_summaries_from(results),
        metrics=_merged_metrics(results),
        profiles=_merged_profiles(results),
    )


def _summarize(name: str, samples: typing.List[JobMetrics]) -> JobSummary:
    rt = SampleStats()
    for m in samples:
        rt.add(m.response_time)
    n = len(samples)
    return JobSummary(
        name=name,
        response_time=rt.confidence_interval(),
        n_reallocations=sum(m.n_reallocations for m in samples) / n,
        pct_affinity=sum(m.pct_affinity for m in samples) / n,
        reallocation_interval=sum(m.reallocation_interval for m in samples) / n,
        work=sum(m.work for m in samples) / n,
        waste=sum(m.waste for m in samples) / n,
        average_allocation=sum(m.average_allocation for m in samples) / n,
    )


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
