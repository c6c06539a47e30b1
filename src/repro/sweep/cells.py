"""Running one sweep cell, and (de)serializing its result payload.

The executor hands workers nothing but a :class:`~repro.sweep.spec.SweepCell`
(kind + canonical config); :func:`run_cell` dispatches it to the
existing experiment drivers — :func:`repro.measure.runner.run_mix`,
:func:`repro.workloads.opensys.scenario.run_scenario` (over a built-in
scenario or an SWF replay), or
:class:`repro.measure.penalty.PenaltyExperiment` — and packs the outcome
into a plain-JSON payload the cache can persist.  Each driver is
deterministic in the cell's config alone (every RNG stream is re-derived
from the seed inside the run), so a cell computes the same payload
whichever worker, shard, or session runs it.

The ``*_from_dict`` inverses rebuild the original result dataclasses
bit-for-bit (JSON floats round-trip exactly), and the ``*_comparison``
assemblers regroup a sweep's payloads into the exact aggregate objects
the report renderers already consume — byte-identical to what the
pre-sweep per-figure loops produced.
"""

from __future__ import annotations

import typing

from repro.apps import APPLICATIONS
from repro.core.system import JobMetrics, SystemResult
from repro.measure.penalty import PenaltyExperiment, PenaltyResult, PenaltyTable, RegimeRun
from repro.measure.runner import (
    MixComparison,
    Replication,
    comparison_from_replications,
    run_mix,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import SpanProfiler
from repro.sweep.cache import RESULT_SCHEMA
from repro.sweep.spec import (
    CELL_KINDS,
    SweepCell,
    SweepSpec,
    mix_cell,
    policy_named,
    table1_cell,
)
from repro.workloads.opensys.scenario import (
    CellSummary,
    MatrixComparison,
    OpenSystemResult,
    built_in_scenarios,
    run_scenario,
)
from repro.workloads.opensys.swf import SwfScenario

#: cell -> result payload, as returned by the executor.
PayloadMap = typing.Mapping[SweepCell, typing.Dict[str, typing.Any]]


# ---------------------------------------------------------------------- #
# result <-> plain dict


def job_metrics_to_dict(m: JobMetrics) -> typing.Dict[str, typing.Any]:
    return {
        "name": m.name,
        "response_time": m.response_time,
        "work": m.work,
        "waste": m.waste,
        "n_reallocations": m.n_reallocations,
        "pct_affinity": m.pct_affinity,
        "cache_penalty_total": m.cache_penalty_total,
        "switch_overhead_total": m.switch_overhead_total,
        "average_allocation": m.average_allocation,
    }


def job_metrics_from_dict(data: typing.Mapping[str, typing.Any]) -> JobMetrics:
    return JobMetrics(**data)


def system_result_to_dict(result: SystemResult) -> typing.Dict[str, typing.Any]:
    """Field-complete, insertion-order-preserving plain form."""
    return {
        "policy": result.policy,
        "n_processors": result.n_processors,
        "seed": result.seed,
        "makespan": result.makespan,
        "jobs": {
            name: job_metrics_to_dict(m) for name, m in result.jobs.items()
        },
        "cancelled": dict(result.cancelled),
    }


def system_result_from_dict(
    data: typing.Mapping[str, typing.Any]
) -> SystemResult:
    return SystemResult(
        policy=data["policy"],
        n_processors=data["n_processors"],
        seed=data["seed"],
        makespan=data["makespan"],
        jobs={
            name: job_metrics_from_dict(m) for name, m in data["jobs"].items()
        },
        cancelled=dict(data["cancelled"]),
    )


def opensys_result_to_dict(
    result: OpenSystemResult,
) -> typing.Dict[str, typing.Any]:
    return {
        "scenario": result.scenario,
        "policy": result.policy,
        "seed": result.seed,
        "n_processors": result.n_processors,
        "makespan": result.makespan,
        "n_jobs": result.n_jobs,
        "n_completed": result.n_completed,
        "n_cancelled": result.n_cancelled,
        "response_times": list(result.response_times),
        "total_work": result.total_work,
        "total_reallocations": result.total_reallocations,
        "n_failures": result.n_failures,
        "system": system_result_to_dict(result.system),
    }


def opensys_result_from_dict(
    data: typing.Mapping[str, typing.Any]
) -> OpenSystemResult:
    return OpenSystemResult(
        scenario=data["scenario"],
        policy=data["policy"],
        seed=data["seed"],
        n_processors=data["n_processors"],
        makespan=data["makespan"],
        n_jobs=data["n_jobs"],
        n_completed=data["n_completed"],
        n_cancelled=data["n_cancelled"],
        response_times=tuple(data["response_times"]),
        total_work=data["total_work"],
        total_reallocations=data["total_reallocations"],
        n_failures=data["n_failures"],
        system=system_result_from_dict(data["system"]),
    )


def _regime_to_dict(run: RegimeRun) -> typing.Dict[str, typing.Any]:
    return {
        "response_time": run.response_time,
        "n_switches": run.n_switches,
        "hit_rate": run.hit_rate,
    }


def penalty_result_to_dict(result: PenaltyResult) -> typing.Dict[str, typing.Any]:
    return {
        "app": result.app,
        "q_s": result.q_s,
        "stationary": _regime_to_dict(result.stationary),
        "migrating": _regime_to_dict(result.migrating),
        "multiprog": {
            name: _regime_to_dict(run)
            for name, run in result.multiprog.items()
        },
    }


def penalty_result_from_dict(
    data: typing.Mapping[str, typing.Any]
) -> PenaltyResult:
    return PenaltyResult(
        app=data["app"],
        q_s=data["q_s"],
        stationary=RegimeRun(**data["stationary"]),
        migrating=RegimeRun(**data["migrating"]),
        multiprog={
            name: RegimeRun(**run) for name, run in data["multiprog"].items()
        },
    )


# ---------------------------------------------------------------------- #
# running one cell


def run_cell(
    cell: SweepCell,
    collect_metrics: bool = False,
    collect_profile: bool = False,
    tracer: typing.Optional[object] = None,
    heartbeat: typing.Optional[object] = None,
) -> typing.Dict[str, typing.Any]:
    """Compute one cell from scratch; returns its schema-tagged payload.

    Deterministic in the cell config: re-running any cell anywhere
    yields an identical payload (the cache-correctness contract).  An
    ``swf`` cell re-hashes its trace file and raises ``ValueError`` if
    the bytes no longer match the digest it was keyed under.
    ``metrics`` snapshots ride inside the payload and are cacheable
    (order-stable merges reassemble the aggregate views); a ``profile``
    snapshot is wall-clock measurement and therefore *transient* — the
    executor strips it before caching (see :func:`strip_transient`).
    """
    if cell.kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {cell.kind!r}")
    config = cell.config
    registry = MetricsRegistry() if collect_metrics else None
    profiler = SpanProfiler() if collect_profile else None
    observers = dict(tracer=tracer, metrics=registry, profiler=profiler)
    if cell.kind == "table1":
        experiment = PenaltyExperiment(
            scale=config["scale"], seed=config["seed"],
            backend=config["backend"], **observers,
        )
        result = experiment.measure(
            APPLICATIONS[config["app"]],
            config["q_s"],
            partners=[APPLICATIONS[name] for name in config["partners"]],
        )
        data: typing.Dict[str, typing.Any] = {
            "penalty": penalty_result_to_dict(result)
        }
    else:
        policy = policy_named(config["policy"], cell.kind)
        run = dict(
            seed=config["seed"], n_processors=config["n_processors"],
            heartbeat=heartbeat, **observers,
        )
        if cell.kind == "mix":
            data = {"system": system_result_to_dict(
                run_mix(config["mix"], policy, **run)
            )}
        else:
            if cell.kind == "opensys":
                scenario: typing.Any = built_in_scenarios(
                    lite=config["lite"],
                    n_processors=config["n_processors"],
                    utilization=config["utilization"],
                )[config["scenario"]]
            else:
                scenario = SwfScenario.from_file(
                    config["swf"],
                    time_scale=config["time_scale"],
                    work_scale=config["work_scale"],
                    max_jobs=config["max_jobs"],
                    sha256=config["sha256"],
                )
            data = {"opensys": opensys_result_to_dict(
                run_scenario(scenario, policy, **run)
            )}
    payload: typing.Dict[str, typing.Any] = {
        "schema": RESULT_SCHEMA,
        "kind": cell.kind,
        "cell": config,
        "data": data,
    }
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    if profiler is not None:
        payload["profile"] = profiler.snapshot()
    return payload


def strip_transient(
    payload: typing.Mapping[str, typing.Any]
) -> typing.Dict[str, typing.Any]:
    """The cacheable subset of a payload: everything but wall-clock data.

    Profiles time the *simulator*, not the simulated system — caching
    one would replay this machine's timings as if they were results.
    """
    return {k: v for k, v in payload.items() if k != "profile"}


# ---------------------------------------------------------------------- #
# payloads -> the aggregate report objects


def mix_comparison(
    spec: SweepSpec, payloads: PayloadMap, mix_id: int
) -> MixComparison:
    """Assemble one mix's :class:`MixComparison` from sweep payloads.

    Rebuilds the per-seed :class:`Replication` objects (all of the
    spec's policies on the shared seed — the common-random-numbers
    pairing survives because every driver derives its streams from the
    seed alone) and summarizes them in seed order through
    :func:`~repro.measure.runner.comparison_from_replications`, so a
    cache-served comparison is byte-identical to a freshly run one.
    """
    replications = []
    for seed in spec.seeds:
        jobs: typing.Dict[str, typing.Dict[str, JobMetrics]] = {}
        metrics: typing.Dict[str, dict] = {}
        profile: typing.Dict[str, dict] = {}
        for policy in spec.policies:
            payload = payloads[mix_cell(mix_id, policy, seed, spec.n_processors)]
            system = payload["data"]["system"]
            jobs[policy] = {
                name: job_metrics_from_dict(m)
                for name, m in system["jobs"].items()
            }
            if payload.get("metrics") is not None:
                metrics[policy] = payload["metrics"]
            if payload.get("profile") is not None:
                profile[policy] = payload["profile"]
        replications.append(
            Replication(jobs=jobs, metrics=metrics, profile=profile)
        )
    return comparison_from_replications(mix_id, replications)


def matrix_comparison(
    spec: SweepSpec, payloads: PayloadMap
) -> MatrixComparison:
    """Assemble the :class:`MatrixComparison` of an ``opensys`` or ``swf``
    sweep from its payloads.

    Walks the expanded cells seed-major, then in (scenario, policy)
    declaration order, so per-cell result tuples run in seed order and
    metric snapshots merge in seed order — the order-stable merge makes
    the assembled matrix independent of worker count and cache state.
    An SWF sweep is a one-scenario matrix named after its trace file.
    """
    seed_rank = {seed: rank for rank, seed in enumerate(spec.seeds)}
    ordered = sorted(spec.expand(), key=lambda c: seed_rank[c.config["seed"]])
    results: typing.Dict[
        typing.Tuple[str, str], typing.List[OpenSystemResult]
    ] = {}
    merged: typing.Dict[typing.Tuple[str, str], MetricsRegistry] = {}
    for cell in ordered:
        payload = payloads[cell]
        result = opensys_result_from_dict(payload["data"]["opensys"])
        key = (result.scenario, result.policy)
        results.setdefault(key, []).append(result)
        snapshot = payload.get("metrics")
        if snapshot is not None:
            merged.setdefault(key, MetricsRegistry()).merge_snapshot(snapshot)
    cells = {
        key: CellSummary.from_results(cell_results)
        for key, cell_results in results.items()
    }
    return MatrixComparison(
        seeds=spec.seeds,
        scenarios=tuple(dict.fromkeys(scenario for scenario, _ in results)),
        policies=spec.policies,
        results={key: tuple(value) for key, value in results.items()},
        cells=cells,
        metrics={key: reg.snapshot() for key, reg in merged.items()},
    )


def mean_response_table(
    spec: SweepSpec, payloads: PayloadMap
) -> typing.Dict[int, typing.Dict[str, float]]:
    """Table 4's numbers: mix -> policy -> seed-averaged mean response time.

    Accumulates per-seed job means in seed order and divides once, the
    exact float-operation sequence the pre-sweep loop performed.
    """
    out: typing.Dict[int, typing.Dict[str, float]] = {}
    for mix_id in spec.mixes:
        out[mix_id] = {}
        for policy in spec.policies:
            total = 0.0
            for seed in spec.seeds:
                cell = mix_cell(mix_id, policy, seed, spec.n_processors)
                jobs = payloads[cell]["data"]["system"]["jobs"]
                total += sum(
                    j["response_time"] for j in jobs.values()
                ) / len(jobs)
            out[mix_id][policy] = total / len(spec.seeds)
    return out


def penalty_table(
    spec: SweepSpec, payloads: PayloadMap, seed: typing.Optional[int] = None
) -> PenaltyTable:
    """Assemble Table 1 from sweep payloads (one seed's worth of cells)."""
    if seed is None:
        if len(spec.seeds) != 1:
            raise ValueError(
                f"spec has seeds {list(spec.seeds)}; pass the seed to tabulate"
            )
        seed = spec.seeds[0]
    results: typing.Dict[typing.Tuple[str, float], PenaltyResult] = {}
    for app in spec.apps:
        for q_s in spec.quanta:
            cell = table1_cell(
                app, q_s, spec.apps, spec.scale, seed, spec.backend
            )
            results[(app, q_s)] = penalty_result_from_dict(
                payloads[cell]["data"]["penalty"]
            )
    return PenaltyTable(results=results, partner_names=spec.apps)


def merged_metrics(
    spec: SweepSpec, payloads: PayloadMap
) -> typing.Optional[typing.Dict[str, typing.Any]]:
    """All cells' metric snapshots folded in expansion order, or ``None``.

    Expansion order is the same nesting the pre-sweep accumulation loops
    used, and the registry's merges are order-stable, so this reproduces
    a single shared registry's view of the whole sweep.
    """
    snapshots = [
        payloads[cell]["metrics"]
        for cell in spec.expand()
        if payloads.get(cell, {}).get("metrics") is not None
    ]
    if not snapshots:
        return None
    return MetricsRegistry.merged(snapshots)


def merged_profile(
    spec: SweepSpec, payloads: PayloadMap
) -> typing.Optional[typing.Dict[str, typing.Any]]:
    """All cells' profile snapshots folded in expansion order, or ``None``."""
    snapshots = [
        payloads[cell]["profile"]
        for cell in spec.expand()
        if payloads.get(cell, {}).get("profile") is not None
    ]
    if not snapshots:
        return None
    return SpanProfiler.merged(snapshots)
