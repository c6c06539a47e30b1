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

A payload's ``data`` is the driver's result dataclass through
:func:`~repro.reporting.export.to_plain`; the ``*_from_dict`` inverses
rebuild it bit-for-bit (JSON floats round-trip exactly), and the
``*_comparison`` assemblers regroup a sweep's payloads into the exact
aggregate objects the report renderers already consume — byte-identical
to what the pre-sweep per-figure loops produced.
"""

from __future__ import annotations

import typing

from repro.apps import APPLICATIONS
from repro.core.system import JobMetrics, SystemResult
from repro.measure.penalty import PenaltyExperiment, PenaltyResult, PenaltyTable, RegimeRun
from repro.measure.runner import JobSummary, MixComparison, run_mix
from repro.measure.workloads import MIXES
from repro.obs.metrics import MetricsFold, MetricsRegistry
from repro.obs.profiling import merge_profiles, profile_call
from repro.reporting.export import to_plain
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
# plain dict -> result


def system_result_from_dict(
    data: typing.Mapping[str, typing.Any]
) -> SystemResult:
    jobs = {name: JobMetrics(**m) for name, m in data["jobs"].items()}
    return SystemResult(**{**data, "jobs": jobs})


def opensys_result_from_dict(
    data: typing.Mapping[str, typing.Any]
) -> OpenSystemResult:
    return OpenSystemResult(**{
        **data,
        "response_times": tuple(data["response_times"]),
        "system": system_result_from_dict(data["system"]),
    })


def penalty_result_from_dict(
    data: typing.Mapping[str, typing.Any]
) -> PenaltyResult:
    multiprog = {name: RegimeRun(**run) for name, run in data["multiprog"].items()}
    return PenaltyResult(**{
        **data,
        "stationary": RegimeRun(**data["stationary"]),
        "migrating": RegimeRun(**data["migrating"]),
        "multiprog": multiprog,
    })


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
    (order-stable merges reassemble the aggregate views).  A scheduling
    cell folds its snapshot through a
    :class:`~repro.obs.metrics.MetricsFold`, which builds no records:
    from the rows ``tracer`` holds after the run, kind by kind, or,
    with no ``tracer``, as each record is emitted.  A ``table1`` cell feeds its
    ``penalty/*`` instruments live.
    ``collect_profile`` runs the driver under cProfile and adds its
    ``profile`` snapshot (see :mod:`repro.obs.profiling`), a wall-clock
    measurement and therefore *transient* — the executor strips it
    before caching (see :func:`strip_transient`).
    """
    if cell.kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {cell.kind!r}")
    if not collect_profile:
        return _compute(cell, collect_metrics, tracer, heartbeat)
    payload, profile = profile_call(
        _compute, cell, collect_metrics, tracer, heartbeat
    )
    payload["profile"] = profile
    return payload


def _compute(
    cell: SweepCell,
    collect_metrics: bool,
    tracer: typing.Optional[object],
    heartbeat: typing.Optional[object],
) -> typing.Dict[str, typing.Any]:
    """Run ``cell``'s driver and pack its payload (see :func:`run_cell`)."""
    config = cell.config
    registry = None
    if cell.kind == "table1":
        registry = MetricsRegistry() if collect_metrics else None
        experiment = PenaltyExperiment(
            scale=config["scale"], seed=config["seed"], backend=config["backend"],
            tracer=tracer, metrics=registry,
        )
        result = experiment.measure(
            APPLICATIONS[config["app"]],
            config["q_s"],
            partners=[APPLICATIONS[name] for name in config["partners"]],
        )
        data: typing.Dict[str, typing.Any] = {"penalty": to_plain(result)}
    else:
        policy = policy_named(config["policy"], cell.kind)
        fold = None
        if collect_metrics and tracer is None:
            tracer = fold = MetricsFold()
        run = dict(
            seed=config["seed"], n_processors=config["n_processors"],
            tracer=tracer, heartbeat=heartbeat,
        )
        if cell.kind == "mix":
            data = {"system": to_plain(run_mix(config["mix"], policy, **run))}
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
            data = {"opensys": to_plain(run_scenario(scenario, policy, **run))}
        if collect_metrics and fold is None:
            fold = MetricsFold()
            for kind, rows in tracer.rows.items():
                fold.emit_rows(kind, rows)
        if fold is not None:
            registry = fold.metrics
    payload: typing.Dict[str, typing.Any] = {
        "schema": RESULT_SCHEMA,
        "kind": cell.kind,
        "cell": config,
        "data": data,
    }
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    return payload


def strip_transient(
    payload: typing.Mapping[str, typing.Any]
) -> typing.Dict[str, typing.Any]:
    """The cacheable subset of a payload: everything but wall-clock data.

    Profiles (``profile``) and the executor's final telemetry snapshots
    (``telemetry``) time the *simulator*, not the simulated system —
    caching one would replay this machine's timings as if they were
    results.
    """
    return {
        k: v for k, v in payload.items() if k not in ("profile", "telemetry")
    }


# ---------------------------------------------------------------------- #
# payloads -> the aggregate report objects


def mix_comparison(
    spec: SweepSpec, payloads: PayloadMap, mix_id: int
) -> MixComparison:
    """Assemble one mix's :class:`MixComparison` from sweep payloads.

    Policy by policy, each job's metrics are averaged over the spec's
    seeds in spec order (every policy ran the same seeds — the
    common-random-numbers pairing survives because every driver derives
    its streams from the seed alone), and the seeds' snapshots merge in
    the same order, so a cache-served comparison is byte-identical to a
    freshly run one.
    """
    summaries: typing.Dict[str, typing.Dict[str, JobSummary]] = {}
    runs: typing.Dict[str, typing.List[typing.Dict[str, typing.Any]]] = {}
    for policy in spec.policies:
        runs[policy] = [
            payloads[mix_cell(mix_id, policy, seed, spec.n_processors)]
            for seed in spec.seeds
        ]
        samples: typing.Dict[str, typing.List[JobMetrics]] = {}
        for payload in runs[policy]:
            for name, m in payload["data"]["system"]["jobs"].items():
                samples.setdefault(name, []).append(JobMetrics(**m))
        summaries[policy] = {
            name: JobSummary.from_samples(name, jobs)
            for name, jobs in samples.items()
        }
    return MixComparison(
        mix=MIXES[mix_id],
        n_replications=len(spec.seeds),
        summaries=summaries,
        metrics=merged_snapshots(runs, "metrics"),
        profiles=merged_snapshots(runs, "profile"),
    )


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
    runs: typing.Dict[
        typing.Tuple[str, str], typing.List[typing.Dict[str, typing.Any]]
    ] = {}
    for cell in ordered:
        payload = payloads[cell]
        result = opensys_result_from_dict(payload["data"]["opensys"])
        key = (result.scenario, result.policy)
        results.setdefault(key, []).append(result)
        runs.setdefault(key, []).append(payload)
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
        metrics=merged_snapshots(runs, "metrics"),
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


#: payload field -> the order-stable merge of its snapshots
_MERGES: typing.Dict[str, typing.Callable[..., typing.Dict[str, typing.Any]]] = {
    "metrics": MetricsRegistry.merged,
    "profile": merge_profiles,
}


def merged_snapshots(
    groups: typing.Mapping[typing.Any, typing.Iterable[typing.Mapping[str, typing.Any]]],
    field: str,
) -> typing.Dict[typing.Any, typing.Dict[str, typing.Any]]:
    """Each group's ``field`` snapshots (``"metrics"`` or ``"profile"``)
    folded in the order given; a group whose payloads carry none is left
    out.

    Every snapshot merge of a report goes through here: per policy for a
    mix, per (scenario, policy) for a matrix, and over a whole spec's
    cells in expansion order (the nesting the pre-sweep loops used) for
    the CLI's sweep-wide view.  The merges are order-stable, so the
    result does not depend on worker count or cache state.
    """
    merged: typing.Dict[typing.Any, typing.Dict[str, typing.Any]] = {}
    for key, group in groups.items():
        snapshots = [p[field] for p in group if p.get(field) is not None]
        if snapshots:
            merged[key] = _MERGES[field](snapshots)
    return merged
