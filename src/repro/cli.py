"""Command line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro apps                    # Figures 2-4
    python -m repro table1 [--scale N]      # Table 1
    python -m repro fig5 [--mix K] [-r N]   # Figure 5 (+ Table 3 metrics)
    python -m repro fig6 [--mix K] [-r N]   # Figure 6 (Dyn-Aff-NoPri)
    python -m repro table4 [-r N]           # Table 4
    python -m repro future [--mix K] [-r N] # Figures 8-13
    python -m repro section8 [--mix K]      # time-sharing contrast
    python -m repro gantt [--mix K]         # allocation timelines
    python -m repro hierarchy               # Section 7.2 sqrt-memory law
    python -m repro trace [--mix K] [--policy P] [--out F]  # JSONL trace
    python -m repro opensys [--scenario S] [--swf F]    # open-system matrix
    python -m repro sweep run|status|clean SPEC # declarative sweeps
    python -m repro analyze TRACE [--window S]  # attribution + interval series
    python -m repro diff TRACE_A TRACE_B        # why do two runs differ?
    python -m repro all                     # everything (slow)

The paper's figure commands (``table1``, ``fig5``, ``fig6``, ``table4``,
``future``, ``section8``) and ``opensys`` are entries of one table,
:data:`FIGURES`: each pairs a function from the parsed arguments to the
command's ``SweepSpec`` with a renderer of the finished sweep.
``sweep run`` is one more such entry, :data:`SWEEP_RUN`, whose spec
comes from its file.  One driver, :func:`run_figures`, builds the
specs, runs them through ``run_sweep`` (the only call in this module,
so every sweep flag is read in one place) and renders them, so ``repro
all`` runs the union of the six figures' cells as ONE sweep, each
distinct (mix, policy, seed) cell once, and ``--workers`` spreads over
all of them.  A traced single run (``trace``, ``gantt``, ``--analyze``,
``opensys --trace``) is one ``run_cell`` call on the cell its command
names, read back like a sweep payload.

The replication-based experiments accept ``--metrics``: each cell
collects its metrics (a scheduling cell folds them from its trace) and
the merged snapshot is printed as key-sorted JSON after the
experiment's own output, preceded by a ``=== metrics`` marker line.
``--analyze`` additionally runs one traced replication per policy and
prints its exact time-attribution tables (after ``=== analysis ===``);
``--profile`` collects a wall-clock self-profile of the simulator and
prints it after ``=== profile ===``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import typing

from repro.apps import APPLICATIONS
from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
    POLICIES,
    TIME_SHARING,
    TIME_SHARING_AFFINITY,
)
from repro.engine.rng import RngRegistry
from repro.measure.workloads import MIXES
from repro.model import (
    DEFAULT_PENALTIES,
    FutureMachineModel,
    observations_from_comparison,
    sweep_relative,
)
from repro.reporting.figures import ascii_chart, parallelism_histogram
from repro.reporting.tables import (
    render_relative_rt_table,
    render_section8,
    render_table1,
    render_table3,
    render_table4,
)
from repro.sweep.spec import SweepSpec, mix_cell

_FIG5_POLICIES = (EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_DELAY)
_SECTION8_POLICIES = tuple(
    p.name for p in (TIME_SHARING, TIME_SHARING_AFFINITY, DYNAMIC, DYN_AFF)
)

#: Marker line preceding a JSON metrics snapshot on stdout (tests and
#: scripts split on it to find the machine-readable part).
METRICS_MARKER = "=== metrics ==="
#: Marker line preceding per-policy time-attribution output (--analyze).
ANALYSIS_MARKER = "=== analysis ==="
#: Marker line preceding a simulator self-profile table (--profile).
PROFILE_MARKER = "=== profile ==="
#: Marker line preceding the live-run telemetry summary (--progress).
TELEMETRY_MARKER = "=== telemetry ==="

#: Exit status when stdout's reader hangs up before the output is all
#: written: the output is incomplete, so the command did not succeed.
EXIT_BROKEN_PIPE = 1


def _print_snapshot(snapshot: typing.Mapping[str, typing.Any], label: str = "") -> None:
    from repro.reporting.obs_export import snapshot_to_json

    print(METRICS_MARKER + (f" {label}" if label else ""))
    print(snapshot_to_json(snapshot), end="")


def _print_snapshots(
    metrics: typing.Mapping[str, typing.Any],
    profiles: typing.Mapping[str, typing.Any],
) -> None:
    """Merged metrics, then merged profiles, each sorted by label."""
    from repro.reporting.analysis_report import render_profile_table

    for label in sorted(metrics):
        _print_snapshot(metrics[label], label=label)
    for label in sorted(profiles):
        print(PROFILE_MARKER + (f" {label}" if label else ""))
        print(render_profile_table(profiles[label]))


def _print_attribution(records):
    """Print the exact time attribution of ``records`` and check it.

    The conservation laws are checked on the spot; a violation exits
    non-zero, because an attribution that does not conserve is wrong by
    construction and must never ship as an explanation.
    """
    from repro.obs.analysis import attribute_time
    from repro.reporting.analysis_report import render_attribution_table

    attribution = attribute_time(records)
    errors = attribution.conservation_errors()
    print(render_attribution_table(attribution))
    if errors:
        print("CONSERVATION VIOLATED:")
        for message in errors:
            print(f"  {message}")
        raise SystemExit(1)
    print("conservation: exact (buckets sum to makespan x P and to "
          "per-job response times)")
    return attribution


def _print_analysis(spec: SweepSpec, mix_ids: typing.Sequence[int], seed: int) -> None:
    """Run one traced replication per (mix, policy) and print attributions."""
    from repro.obs import Tracer
    from repro.sweep.cells import run_cell

    for mix_id in mix_ids:
        for policy in spec.policies:
            tracer = Tracer()
            run_cell(mix_cell(mix_id, policy, seed, spec.n_processors), tracer=tracer)
            print(f"{ANALYSIS_MARKER} mix {mix_id} {policy}")
            _print_attribution(tracer.records)
            print()


def _parse_number(value: str, convert: typing.Callable[[str], typing.Any]):
    """``convert(value)``, with a parse failure as an argparse usage error."""
    try:
        return convert(value)
    except ValueError:
        what = "an integer" if convert is int else "a number"
        raise argparse.ArgumentTypeError(
            f"must be {what}, got {value!r}"
        ) from None


def _positive_int_arg(value: str) -> int:
    """A count of at least 1 (``-r``, ``--workers``, ``--scale``, ...)."""
    number = _parse_number(value, int)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {number}"
        )
    return number


def _nonnegative_int_arg(value: str) -> int:
    """A count where 0 means "no limit" (``--max-jobs``)."""
    number = _parse_number(value, int)
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {number}"
        )
    return number


def _positive_float_arg(value: str) -> float:
    """A finite divisor greater than 0 (``--time-scale``, ``--work-scale``)."""
    number = _parse_number(value, float)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {value!r}"
        )
    return number


def _seeds_arg(value: str) -> typing.Union[int, typing.Tuple[int, ...]]:
    """``--seeds``: a count ("3") or an explicit list ("1,2,5").

    Explicit lists are validated here (shared :func:`normalize_seeds`
    logic), so ``--seeds 1,1,2`` fails at parse time with the duplicate
    named instead of silently double-running a simulation.
    """
    from repro.sweep import normalize_seeds, parse_seeds_arg

    try:
        seeds = parse_seeds_arg(value)
        normalize_seeds(seeds)  # counts and lists both validated up front
        return seeds
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_apps(args: argparse.Namespace) -> None:
    """Figures 2-4: per-application parallelism profiles."""
    rng = RngRegistry(args.seed)
    for name, spec in APPLICATIONS.items():
        graph = spec.build_graph(rng.stream(f"profile/{name}"))
        profile = graph.parallelism_profile(args.processors)
        print(parallelism_histogram(profile, name))
        print()


def _mix_spec(
    args: argparse.Namespace,
    name: str,
    policies: typing.Sequence[typing.Any],
    mixes: typing.Optional[typing.Sequence[int]] = None,
) -> SweepSpec:
    """A (mixes x policies x seeds) grid: one cached cell per triple, so
    figures that share a triple share its run (and its cache entry)."""
    return SweepSpec(
        name=name,
        kind="mix",
        mixes=tuple(mixes or ([args.mix] if args.mix else sorted(MIXES))),
        policies=tuple(p.name for p in policies),
        seeds=tuple(args.seed + r for r in range(args.replications)),
    )


def _print_merged(spec: SweepSpec, payloads) -> None:
    """The sweep's merged metrics and profile snapshots, when collected."""
    from repro.sweep.cells import merged_snapshots

    runs = {"": [payloads[cell] for cell in spec.expand()]}
    _print_snapshots(
        merged_snapshots(runs, "metrics"), merged_snapshots(runs, "profile")
    )


def _render_table1(args: argparse.Namespace, spec: SweepSpec, sweep) -> None:
    """Table 1, cache penalties per application per Q, once per seed
    (headed by the seed when there are several); then the snapshots."""
    from repro.sweep.cells import penalty_table

    payloads = sweep.payloads
    for seed in spec.seeds:
        if len(spec.seeds) > 1:
            print(f"--- seed {seed} ---")
        print(render_table1(penalty_table(spec, payloads, seed=seed)))
    _print_merged(spec, payloads)


def _render_relative_rt(
    args: argparse.Namespace, spec: SweepSpec, sweep, table3: bool = False
) -> None:
    """Figure 5 (+ Table 3 and ``--csv``) or Figure 6: each policy's
    response times relative to Equipartition, mix by mix."""
    from repro.sweep.cells import mix_comparison

    payloads = sweep.payloads
    csv_rows: typing.List[typing.Sequence[object]] = []
    for mix_id in spec.mixes:
        comparison = mix_comparison(spec, payloads, mix_id)
        print(render_relative_rt_table(comparison))
        print()
        if table3:
            print(render_table3(comparison))
            print()
        _print_snapshots(comparison.metrics, comparison.profiles)
        if getattr(args, "analyze", False):
            _print_analysis(spec, [mix_id], args.seed)
        if table3 and args.csv:
            csv_rows.extend(
                [mix_id, policy, job, summary.response_time.mean,
                 summary.n_reallocations, summary.pct_affinity,
                 summary.average_allocation]
                for policy in comparison.policies()
                for job, summary in comparison.summaries[policy].items()
            )
    if table3 and args.csv:
        from repro.ioutil import atomic_write_text
        from repro.reporting.export import rows_to_csv

        headers = [
            "mix", "policy", "job", "response_time_s",
            "n_reallocations", "pct_affinity", "average_allocation",
        ]
        atomic_write_text(args.csv, rows_to_csv(headers, csv_rows))
        print(f"wrote {len(csv_rows)} rows to {args.csv}")


def _render_table4(args: argparse.Namespace, spec: SweepSpec, sweep) -> None:
    """Table 4: homogeneous workloads, Dyn-Aff vs Dyn-Aff-NoPri."""
    from repro.sweep.cells import mean_response_table

    payloads = sweep.payloads
    print(render_table4(mean_response_table(spec, payloads)))
    _print_merged(spec, payloads)
    if getattr(args, "analyze", False):
        _print_analysis(spec, spec.mixes, args.seed)


def _render_future(args: argparse.Namespace, spec: SweepSpec, sweep) -> None:
    """Figures 8-13: the extended model on future machines (fig5's cells)."""
    from repro.sweep.cells import mix_comparison

    model = FutureMachineModel(DEFAULT_PENALTIES)
    payloads = sweep.payloads
    for mix_id in spec.mixes:
        comparison = mix_comparison(spec, payloads, mix_id)
        _print_snapshots(comparison.metrics, comparison.profiles)
        observations = observations_from_comparison(comparison)
        for job in comparison.job_names():
            series = {}
            for policy in ("Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"):
                relative = sweep_relative(
                    model, observations[policy][job], observations["Equipartition"][job]
                )
                series[policy] = list(zip(relative.products, relative.ratios))
            print(
                ascii_chart(
                    series,
                    title=(
                        f"Workload #{mix_id}, job {job}: RT relative to "
                        "Equipartition vs processor-speed x cache-size"
                    ),
                    log_x=True,
                    y_label="rel RT",
                )
            )
            print()


def _render_section8(args: argparse.Namespace, spec: SweepSpec, sweep) -> None:
    """Section 8: time sharing against space sharing on one mix."""
    from repro.sweep.cells import system_result_from_dict

    (mix_id,), (seed,) = spec.mixes, spec.seeds
    payloads = sweep.payloads
    results = {}
    for policy in spec.policies:
        cell = mix_cell(mix_id, policy, seed, spec.n_processors)
        results[policy] = system_result_from_dict(payloads[cell]["data"]["system"])
    print(render_section8(mix_id, results))


def _opensys_spec(args: argparse.Namespace) -> SweepSpec:
    """The open-system (scenario x policy x seed) matrix, or with ``--swf``
    the replay of a trace (policy x seed)."""
    from repro.sweep import normalize_seeds
    from repro.sweep.spec import OPENSYS_SCENARIOS

    axes = dict(
        policies=tuple(args.policy or sorted(POLICIES)),
        seeds=normalize_seeds(args.seeds, args.seed),
        n_processors=args.processors,
    )
    if args.swf:
        return SweepSpec(
            name="opensys-swf", kind="swf", swf=args.swf,
            time_scale=args.time_scale, work_scale=args.work_scale,
            max_jobs=args.max_jobs, **axes,
        )
    return SweepSpec(
        name="opensys", kind="opensys",
        scenarios=(
            OPENSYS_SCENARIOS if args.scenario == "all" else (args.scenario,)
        ),
        lite=args.lite, **axes,
    )


def _print_matrix(spec: SweepSpec, payloads):
    """The seed-aggregated open-system table; returns its comparison."""
    from repro.reporting.opensys_report import render_matrix_table
    from repro.sweep.cells import matrix_comparison

    comparison = matrix_comparison(spec, payloads)
    print(render_matrix_table(comparison))
    return comparison


def _render_opensys(args: argparse.Namespace, spec: SweepSpec, sweep) -> None:
    """The open-system matrix, then what its flags ask for, in order:
    ``--progress``'s telemetry summary, ``--json``, per-cell merged
    ``--metrics`` snapshots (``--metrics-csv``: one wide CSV under a
    stable union header), and ``--trace``: one traced cell (first
    scenario and policy, base seed), self-checked like ``repro trace``."""
    from repro.ioutil import atomic_write_text
    from repro.reporting.opensys_report import matrix_to_json

    comparison = _print_matrix(spec, sweep.payloads)
    _print_telemetry(args, sweep)
    if args.json:
        atomic_write_text(args.json, matrix_to_json(comparison))
        print(f"wrote matrix JSON to {args.json}")
    snapshots = [comparison.metrics[key] for key in sorted(comparison.metrics)]
    labels = ["/".join(key) for key in sorted(comparison.metrics)]
    if args.metrics:
        for snapshot, label in zip(snapshots, labels):
            _print_snapshot(snapshot, label=label)
    if args.metrics_csv:
        from repro.reporting.obs_export import snapshots_to_csv

        csv_text = snapshots_to_csv(snapshots, labels=labels)
        atomic_write_text(args.metrics_csv, csv_text)
        print(f"wrote per-cell metrics CSV to {args.metrics_csv}")

    if args.trace:
        from repro.obs import Tracer
        from repro.sweep.cells import opensys_result_from_dict, run_cell

        (cell,) = dataclasses.replace(
            spec, scenarios=spec.scenarios[:1], policies=spec.policies[:1],
            seeds=(args.seed,),
        ).expand()
        tracer = Tracer()
        result = opensys_result_from_dict(
            run_cell(cell, tracer=tracer)["data"]["opensys"]
        )
        if not _write_checked_trace(
            tracer.records, result.system, args.trace, args.trace_format,
            f"scenario {result.scenario!r} under {result.policy}",
        ):
            raise SystemExit(1)


def _load_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """``sweep``'s spec file; an unreadable or invalid one ends the
    command with one ``error:`` line and exit status 1."""
    from repro.sweep import load_spec

    try:
        return load_spec(args.spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _render_sweep_run(args: argparse.Namespace, spec: SweepSpec, sweep) -> None:
    """``sweep run``: the hit counts, the report of the spec's kind with
    its merged snapshots, then the telemetry summary."""
    from repro.sweep.cells import mix_comparison

    print(f"sweep '{spec.name}' ({spec.kind}): "
          f"{len(sweep.outcomes)} cells, {sweep.n_hits} cache hits, "
          f"{sweep.n_computed} computed")
    print(f"journal: {sweep.journal_path}")
    payloads = sweep.payloads
    if spec.kind == "table1":
        _render_table1(args, spec, sweep)
    elif spec.kind in ("opensys", "swf"):
        _print_matrix(spec, payloads)
        _print_merged(spec, payloads)
    else:  # mix: each policy's mean response time
        for mix_id in spec.mixes:
            comparison = mix_comparison(spec, payloads, mix_id)
            print(f"workload #{mix_id}: mean response time per policy")
            for policy in spec.policies:
                print(f"  {policy:16s} "
                      f"{comparison.mean_response_time(policy):9.2f} s")
        _print_merged(spec, payloads)
    _print_telemetry(args, sweep)


class Figure(typing.NamedTuple):
    """One command that runs cells: its flags, its sweep, its printout."""

    help: str
    flags: typing.Tuple[str, ...]
    spec: typing.Callable[[argparse.Namespace], SweepSpec]
    render: typing.Callable[..., None]


#: The commands that run cells, the paper's figures in paper order and
#: then ``opensys``.  Each is a function from ``args`` to its
#: ``SweepSpec`` plus a renderer of ``(args, spec, sweep)``, ``sweep``
#: being the finished :class:`~repro.sweep.SweepResult`;
#: :func:`run_figures` runs any subset as one sweep, so ``repro all``
#: computes each (mix, policy, seed) cell once however many figures
#: show it.
FIGURES: typing.Dict[str, Figure] = {
    "table1": Figure(
        "Table 1: cache penalties",
        ("--scale", "--metrics", "--profile", "--backend", "--cache-dir"),
        lambda args: SweepSpec(
            name="table1", kind="table1", seeds=(args.seed,),
            scale=args.scale, backend=getattr(args, "backend", None),
        ),
        _render_table1,
    ),
    "fig5": Figure(
        "Figure 5 + Table 3: policy comparison",
        ("--mix", "-r", "--workers", "--metrics", "--analyze", "--profile",
         "--csv", "--cache-dir"),
        lambda args: _mix_spec(args, "fig5", _FIG5_POLICIES),
        functools.partial(_render_relative_rt, table3=True),
    ),
    "fig6": Figure(
        "Figure 6: Dyn-Aff-NoPri",
        ("--mix", "-r", "--workers", "--metrics", "--analyze", "--profile",
         "--cache-dir"),
        lambda args: _mix_spec(args, "fig6", (EQUIPARTITION, DYN_AFF_NOPRI)),
        _render_relative_rt,
    ),
    "table4": Figure(
        "Table 4: homogeneous workloads",
        ("-r", "--metrics", "--analyze", "--profile", "--cache-dir"),
        lambda args: _mix_spec(
            args, "table4", (DYN_AFF, DYN_AFF_NOPRI), mixes=(1, 4)
        ),
        _render_table4,
    ),
    "future": Figure(
        "Figures 8-13: future machines",
        ("--mix", "-r", "--workers", "--metrics", "--cache-dir"),
        lambda args: _mix_spec(args, "future", _FIG5_POLICIES),
        _render_future,
    ),
    "section8": Figure(
        "time-sharing vs space-sharing contrast",
        ("--mix",),
        lambda args: SweepSpec(
            name="section8", kind="mix", mixes=(args.mix or 5,),
            policies=_SECTION8_POLICIES, seeds=(args.seed,),
        ),
        _render_section8,
    ),
    "opensys": Figure(
        "open-system scenarios: arrivals, disruptions, SWF replay",
        ("--scenario", "--policy", "--seeds", "--workers", "--processors",
         "--lite", "--swf", "--time-scale", "--work-scale", "--max-jobs",
         "--json", "--metrics", "--trace", "--trace-format", "--metrics-csv",
         "--progress", "--cache-dir"),
        _opensys_spec,
        _render_opensys,
    ),
}

#: The paper's figures, in paper order: what ``repro all`` runs.
PAPER_FIGURES = ("table1", "fig5", "fig6", "table4", "future", "section8")

#: ``repro sweep run SPEC``: any spec file, reported by its kind.
SWEEP_RUN = Figure(
    "expand the spec, serve cached cells, compute the rest",
    ("--workers", "--force", "--metrics", "--progress"),
    _load_sweep_spec,
    _render_sweep_run,
)


def run_figures(args: argparse.Namespace, figures: typing.Sequence[Figure]) -> None:
    """Build the figures' specs, run their cells as ONE sweep (each
    distinct cell once), then render each figure in order.

    The command line's one way to ``run_sweep``: every sweep flag a
    command has is read here, and a command without it gets the default.
    A malformed SWF trace or a lost pool worker ends the command with one
    ``error:`` line and exit status 1, at any worker count.
    """
    from repro.sweep import ResultCache, WorkerLostError, run_sweep
    from repro.workloads.opensys.swf import SwfFormatError

    specs = [figure.spec(args) for figure in figures]
    cache_dir = getattr(args, "cache_dir", None)
    progress = getattr(args, "progress", False)
    try:
        sweep = run_sweep(
            specs,
            cache=ResultCache(cache_dir) if cache_dir else None,
            workers=getattr(args, "workers", None),
            force=getattr(args, "force", False),
            collect_metrics=(
                getattr(args, "metrics", False)
                or bool(getattr(args, "metrics_csv", None))
            ),
            collect_profile=getattr(args, "profile", False),
            progress=progress,
            on_commit=_shard_progress() if progress else None,
        )
    except (SwfFormatError, WorkerLostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    for figure, spec in zip(figures, specs):
        figure.render(args, spec, sweep)


def cmd_gantt(args: argparse.Namespace) -> None:
    """ASCII allocation timelines for a mix under several policies."""
    from repro.obs import Tracer
    from repro.reporting.timeline import render_gantt
    from repro.sweep.cells import run_cell

    mix_id = args.mix if args.mix else 5
    for policy in (EQUIPARTITION, DYN_AFF, DYN_AFF_NOPRI):
        tracer = Tracer()
        run_cell(mix_cell(mix_id, policy.name, args.seed), tracer=tracer)
        print(f"=== workload #{mix_id} under {policy.name} ===")
        print(render_gantt(tracer.records, width=72))
        print()


def cmd_hierarchy(args: argparse.Namespace) -> None:
    """Section 7.2's two-level-cache / sqrt-memory-law analysis."""
    from repro.machine.hierarchy import sqrt_memory_law_table

    print("required L2 hit rate for full processor speedup")
    print("  speed | constant memory | memory ~ sqrt(speed) | feasible")
    for speed, constant, sqrt_rate, feasible in sqrt_memory_law_table():
        print(f"  {speed:5.0f} | {constant:15.4f} | {sqrt_rate:20.4f} | {feasible}")


def _write_checked_trace(records, result, path: str, fmt: str, what: str) -> bool:
    """Check a run's trace against the invariant and replay oracles,
    write it to ``path`` as ``fmt``, and print both verdicts.

    Returns whether both oracles passed; callers exit non-zero when not,
    so a bad trace can never be silently shipped as an artifact.
    """
    from repro.obs.invariants import check_trace
    from repro.obs.replay import verify_replay
    from repro.obs.store import write_columnar, write_jsonl

    violations = check_trace(records)
    replay_errors = verify_replay(records, result)
    (write_columnar if fmt == "columnar" else write_jsonl)(path, records)
    print(f"wrote {len(records)} records for {what} to {path}")
    print(f"invariant violations: {len(violations)}")
    for message in violations[:20]:
        print(f"  {message}")
    print("replay check: " + ("exact" if not replay_errors else "MISMATCH"))
    for message in replay_errors[:20]:
        print(f"  {message}")
    return not (violations or replay_errors)


def _shard_progress():
    """``--progress``'s shard-commit callback: a line on stderr per shard."""
    from repro.obs.telemetry import ProgressWriter

    writer = ProgressWriter()

    def on_commit(index: int, payloads: typing.List[dict]) -> None:
        writer.write(f"[sweep] shard {index + 1} committed ({len(payloads)} cells)")

    return on_commit


def _print_telemetry(args: argparse.Namespace, sweep) -> None:
    """``--progress``'s summary over the computed cells' final snapshots."""
    if args.progress:
        from repro.obs.telemetry import render_telemetry

        print(TELEMETRY_MARKER)
        print(render_telemetry([
            o.payload["telemetry"] for o in sweep.outcomes if not o.cached
        ]), end="")


def cmd_trace(args: argparse.Namespace) -> None:
    """Run one mix instrumented, export the trace, and self-check it.

    The written trace is verified on the spot: the invariant layer must
    find zero violations and replaying the record stream must reproduce
    the run's own aggregates exactly.  A failed check exits non-zero, so
    a bad trace can never be silently shipped as an artifact.
    ``--format columnar`` writes the compact columnar container instead
    of JSONL (both round-trip losslessly; see ``repro convert``).
    """
    from repro.obs import Tracer
    from repro.sweep.cells import run_cell, system_result_from_dict

    mix_id = args.mix if args.mix else 5
    tracer = Tracer(capture_engine_events=args.engine_events)
    payload = run_cell(
        mix_cell(mix_id, args.policy, args.seed),
        tracer=tracer, collect_metrics=args.metrics,
    )
    ok = _write_checked_trace(
        tracer.records, system_result_from_dict(payload["data"]["system"]),
        args.out, args.format, f"workload #{mix_id} under {args.policy}",
    )
    if args.metrics:
        _print_snapshot(payload["metrics"])
    if not ok:
        raise SystemExit(1)


def cmd_analyze(args: argparse.Namespace) -> None:
    """Time attribution + interval series (+ timeline) for a trace file.

    Accepts JSONL and columnar traces (sniffed by content) and reads the
    file once into a record list that every analysis pass shares.
    Refuses truncated or incomplete artifacts with a clear error and a
    non-zero exit; exits non-zero too if the attribution fails its own
    conservation laws (an explanation that does not add up must never be
    shipped).
    """
    from repro.ioutil import atomic_write_text
    from repro.obs.analysis import interval_series
    from repro.obs.store import TraceFormatError
    from repro.reporting.analysis_report import render_interval_series
    from repro.reporting.obs_export import (
        attribution_to_csv,
        attribution_to_json,
        intervals_to_csv,
        intervals_to_json,
        stream_trace,
    )
    from repro.reporting.timeline import render_cpu_timeline

    try:
        records = list(stream_trace(args.trace, fmt=args.format))
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    attribution = _print_attribution(records)
    window = args.window
    if window is None:
        # Default: ~20 windows across the run.
        span = float(attribution.makespan - attribution.t0)
        window = max(span / 20, 1e-9)
    series = interval_series(records, window_s=window)
    print()
    print(render_interval_series(series))
    if args.timeline:
        print()
        print(render_cpu_timeline(records, width=args.timeline_width))
    if args.json:
        atomic_write_text(args.json, attribution_to_json(attribution))
        print(f"wrote attribution JSON to {args.json}")
    if args.csv:
        atomic_write_text(args.csv, attribution_to_csv(attribution))
        print(f"wrote attribution CSV to {args.csv}")
    if args.intervals_json:
        atomic_write_text(args.intervals_json, intervals_to_json(series))
        print(f"wrote interval series JSON to {args.intervals_json}")
    if args.intervals_csv:
        atomic_write_text(args.intervals_csv, intervals_to_csv(series))
        print(f"wrote interval series CSV to {args.intervals_csv}")


def cmd_diff(args: argparse.Namespace) -> None:
    """Align two traces and explain where their response times diverge.

    Accepts JSONL and columnar inputs in any combination (sniffed by
    content), streamed straight into the aligner.
    """
    from repro.ioutil import atomic_write_text
    from repro.obs.analysis import diff_traces
    from repro.obs.store import TraceFormatError
    from repro.reporting.analysis_report import render_diff_report
    from repro.reporting.obs_export import diff_to_json, stream_trace

    try:
        diff = diff_traces(
            stream_trace(args.trace_a),
            stream_trace(args.trace_b),
            label_a=args.label_a or args.trace_a,
            label_b=args.label_b or args.trace_b,
        )
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(render_diff_report(diff))
    if args.json:
        atomic_write_text(args.json, diff_to_json(diff))
        print(f"wrote diff JSON to {args.json}")


def cmd_convert(args: argparse.Namespace) -> None:
    """Convert a trace between JSONL and the columnar store format.

    The input format is sniffed by content; ``--to`` picks the output
    (default: the other one).  Conversion is the output format's writer
    applied to the input's reader, so it streams and is lossless —
    ``jsonl -> columnar -> jsonl`` reproduces the original bytes.
    """
    from repro.obs.store import (
        TraceFormatError,
        iter_trace_file,
        sniff_format,
        write_columnar,
        write_jsonl,
    )

    try:
        src_fmt = sniff_format(args.src)
        dst_fmt = args.to or ("columnar" if src_fmt == "jsonl" else "jsonl")
        if src_fmt == dst_fmt:
            print(
                f"error: {args.src} is already {src_fmt}", file=sys.stderr
            )
            raise SystemExit(1)
        write = write_columnar if dst_fmt == "columnar" else write_jsonl
        count = write(args.dst, iter_trace_file(args.src, src_fmt))
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(f"converted {count} records: {args.src} ({src_fmt}) -> "
          f"{args.dst} ({dst_fmt})")


def cmd_bench_report(args: argparse.Namespace) -> None:
    """Compare fresh pytest-benchmark JSON against the committed baseline."""
    from repro.reporting.bench_report import compare_benchmarks, render_bench_report

    try:
        report = compare_benchmarks(
            args.fresh, args.baseline, threshold=args.threshold
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(render_bench_report(report))
    if report.regressions:
        raise SystemExit(1)


def cmd_sweep(args: argparse.Namespace) -> None:
    """Declarative sweeps: ``repro sweep run|status|clean spec.{toml,json}``.

    ``run`` is :data:`SWEEP_RUN` through :func:`run_figures`: it expands
    the spec, serves cached cells, computes the rest in resumable shards
    (kill it, run it again: only missing cells recompute), and renders
    the kind-appropriate report.  ``status`` reports cache occupancy
    without running anything; ``clean`` evicts the spec's cells for the
    current code fingerprint.
    """
    from repro.sweep import ResultCache
    from repro.sweep.executor import sweep_clean, sweep_status

    if args.sweep_command == "run":
        run_figures(args, [SWEEP_RUN])
        return
    spec = _load_sweep_spec(args)
    cache = ResultCache(args.cache_dir)
    if args.sweep_command == "status":
        status = sweep_status(spec, cache)
        print(f"sweep '{spec.name}' ({spec.kind}): "
              f"{status.n_cells} cells, {status.n_cached} cached, "
              f"{status.n_pending} pending")
        print(f"cache: {cache.root}")
        print(f"journal: {status.journal_path or '(none yet)'}")
        return
    removed = sweep_clean(spec, cache)
    print(f"sweep '{spec.name}': evicted {removed} cached cell(s) "
          f"from {cache.root}")


def cmd_all(args: argparse.Namespace) -> None:
    """Every experiment in paper order; the figures run as one sweep."""
    cmd_apps(args)
    run_figures(args, [FIGURES[name] for name in PAPER_FIGURES])
    cmd_hierarchy(args)


#: The flags of the commands that run cells, each defined once (most are
#: shared): first option string -> ``add_argument`` keywords (``flags``
#: lists every option string).
_FLAGS: typing.Dict[str, typing.Dict[str, typing.Any]] = {
    "--mix": dict(type=int, choices=sorted(MIXES), default=None),
    "-r": dict(
        flags=("-r", "--replications"), type=_positive_int_arg, default=3
    ),
    "--workers": dict(
        type=_positive_int_arg, default=None, metavar="N",
        help="run cells across N worker processes; results are identical "
        "to a serial run for the same seed (default: serial)",
    ),
    "--metrics": dict(
        action="store_true",
        help="collect metrics and print JSON snapshots after the output",
    ),
    "--analyze": dict(
        action="store_true",
        help="run one traced replication per policy and print its exact "
        "time-attribution tables",
    ),
    "--profile": dict(
        action="store_true",
        help="print wall-clock simulator self-profiles after the tables",
    ),
    "--cache-dir": dict(
        type=str, default=None, metavar="DIR",
        help="serve cells from this content-addressed result cache, "
        "computing and storing only what is missing (shared by every "
        "command that has the flag)",
    ),
    "--csv": dict(
        type=str, default=None,
        help="also write Figure 5's per-job metrics to this CSV file",
    ),
    "--scale": dict(
        type=_positive_int_arg, default=16,
        help="Table 1 fidelity reduction factor (1 = full cache, every "
        "touch simulated)",
    ),
    "--backend": dict(
        choices=("scalar", "numpy"), default=None,
        help="cache and reference-generator engine "
        "(default: numpy when it imports, else scalar)",
    ),
    "--processors": dict(type=_positive_int_arg, default=16),
    "--progress": dict(
        action="store_true",
        help="stream live per-cell heartbeats to stderr and print a "
        "telemetry summary after the report",
    ),
    "--force": dict(
        action="store_true",
        help="recompute every cell even if cached (results are re-stored)",
    ),
    "--scenario": dict(
        choices=("steady", "bursty", "cancellations", "failures", "all"),
        default="all",
        help="built-in scenario to run (default: all four)",
    ),
    "--policy": dict(
        action="append", choices=sorted(POLICIES), default=None,
        metavar="NAME",
        help="policy to include, repeatable (default: all five)",
    ),
    "--seeds": dict(
        type=_seeds_arg, default=3, metavar="N|A,B,...",
        help="seeds per cell: a count starting at --seed (default: 3) or "
        "an explicit comma-separated list; duplicates are rejected",
    ),
    "--lite": dict(
        action="store_true",
        help="fast synthetic job templates instead of the real app specs",
    ),
    "--swf": dict(
        type=str, default=None, metavar="FILE",
        help="replay this Standard Workload Format trace instead of a "
        "built-in scenario",
    ),
    "--time-scale": dict(
        type=_positive_float_arg, default=1.0, metavar="X",
        help="divide SWF submit times by X (default: 1)",
    ),
    "--work-scale": dict(
        type=_positive_float_arg, default=1.0, metavar="X",
        help="divide SWF runtimes by X (default: 1)",
    ),
    "--max-jobs": dict(
        type=_nonnegative_int_arg, default=0, metavar="N",
        help="truncate the SWF trace to its first N jobs (default: all)",
    ),
    "--json": dict(
        type=str, default=None, metavar="FILE",
        help="write the per-cell matrix summary as JSON to this file",
    ),
    "--trace": dict(
        type=str, default=None, metavar="FILE",
        help="also run one traced cell (first scenario/policy, base seed), "
        "self-check it, and write the trace here",
    ),
    "--trace-format": dict(
        choices=("jsonl", "columnar"), default="jsonl",
        help="container format for --trace output (default: jsonl)",
    ),
    "--metrics-csv": dict(
        type=str, default=None, metavar="FILE",
        help="write per-cell merged metrics as one wide CSV (stable "
        "union header across cells) to this file",
    ),
}


def _add_flags(parser: argparse.ArgumentParser, flags: typing.Iterable[str]) -> None:
    for flag in flags:
        kwargs = dict(_FLAGS[flag])
        parser.add_argument(*kwargs.pop("flags", (flag,)), **kwargs)


def _add_figure(sub, name: str) -> None:
    """The subcommand of :data:`FIGURES` entry ``name``: one sweep, one
    render."""
    figure = FIGURES[name]
    p = sub.add_parser(name, help=figure.help)
    _add_flags(p, figure.flags)
    p.set_defaults(func=functools.partial(run_figures, figures=[figure]))


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce Vaswani & Zahorjan (SOSP 1991): cache affinity and "
            "processor scheduling"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_apps = sub.add_parser("apps", help="Figures 2-4: application profiles")
    _add_flags(p_apps, ("--processors",))
    p_apps.set_defaults(func=cmd_apps)

    for name in PAPER_FIGURES:
        _add_figure(sub, name)

    p_gantt = sub.add_parser("gantt", help="ASCII allocation timelines")
    _add_flags(p_gantt, ("--mix",))
    p_gantt.set_defaults(func=cmd_gantt)

    p_hier = sub.add_parser("hierarchy", help="Section 7.2 sqrt-memory-law table")
    p_hier.set_defaults(func=cmd_hierarchy)

    p_trace = sub.add_parser(
        "trace", help="run one mix instrumented and export a JSONL trace"
    )
    _add_flags(p_trace, ("--mix",))
    p_trace.add_argument(
        "--policy", choices=sorted(POLICIES), default=DYN_AFF.name,
    )
    p_trace.add_argument(
        "--out", type=str, default="trace.jsonl",
        help="output path for the JSONL trace (default: trace.jsonl)",
    )
    _add_flags(p_trace, ("--metrics",))
    p_trace.add_argument(
        "--engine-events", action="store_true",
        help="include every engine event firing in the trace (verbose)",
    )
    p_trace.add_argument(
        "--format", choices=("jsonl", "columnar"), default="jsonl",
        help="trace container format to write (default: jsonl)",
    )
    p_trace.set_defaults(func=cmd_trace)

    _add_figure(sub, "opensys")

    p_sw = sub.add_parser(
        "sweep",
        help="declarative sweeps over a content-addressed result cache",
    )
    sw_sub = p_sw.add_subparsers(dest="sweep_command", required=True)
    for sw_name, sw_help in (
        ("run", SWEEP_RUN.help),
        ("status", "report cache occupancy for the spec without running"),
        ("clean", "evict the spec's cached cells (current code only)"),
    ):
        p = sw_sub.add_parser(sw_name, help=sw_help)
        p.add_argument("spec", type=str, help="sweep spec file (.toml or .json)")
        p.add_argument(
            "--cache-dir", type=str, default=".repro-cache", metavar="DIR",
            help="result cache root (default: .repro-cache)",
        )
        _add_flags(p, SWEEP_RUN.flags if sw_name == "run" else ())
        p.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser(
        "analyze",
        help="time attribution + interval series for a trace file",
    )
    p_an.add_argument(
        "trace", type=str,
        help="trace file, JSONL or columnar (from `repro trace`)",
    )
    p_an.add_argument(
        "--format", choices=("jsonl", "columnar"), default=None,
        help="input trace format (default: sniff by content)",
    )
    p_an.add_argument(
        "--window", type=float, default=None, metavar="S",
        help="interval-series window in virtual seconds (default: span/20)",
    )
    p_an.add_argument(
        "--timeline", action="store_true",
        help="also render the ASCII per-CPU timeline",
    )
    p_an.add_argument(
        "--timeline-width", type=int, default=80, metavar="COLS",
        help="timeline width in columns (default: 80)",
    )
    p_an.add_argument("--json", type=str, default=None,
                      help="write the attribution as JSON to this file")
    p_an.add_argument("--csv", type=str, default=None,
                      help="write the attribution as CSV to this file")
    p_an.add_argument("--intervals-json", type=str, default=None,
                      help="write the interval series as JSON to this file")
    p_an.add_argument("--intervals-csv", type=str, default=None,
                      help="write the interval series as CSV to this file")
    p_an.set_defaults(func=cmd_analyze)

    p_diff = sub.add_parser(
        "diff", help="align two traces and explain their response-time gap"
    )
    p_diff.add_argument("trace_a", type=str, help="baseline JSONL trace (A)")
    p_diff.add_argument("trace_b", type=str, help="comparison JSONL trace (B)")
    p_diff.add_argument("--label-a", type=str, default=None)
    p_diff.add_argument("--label-b", type=str, default=None)
    p_diff.add_argument("--json", type=str, default=None,
                        help="write the diff as JSON to this file")
    p_diff.set_defaults(func=cmd_diff)

    p_conv = sub.add_parser(
        "convert", help="convert a trace between JSONL and columnar"
    )
    p_conv.add_argument("src", type=str, help="input trace (format sniffed)")
    p_conv.add_argument("dst", type=str, help="output path")
    p_conv.add_argument(
        "--to", choices=("jsonl", "columnar"), default=None,
        help="output format (default: the other one)",
    )
    p_conv.set_defaults(func=cmd_convert)

    p_bench = sub.add_parser(
        "bench-report",
        help="compare fresh pytest-benchmark JSON against the committed baseline",
    )
    p_bench.add_argument(
        "fresh", type=str, help="fresh --benchmark-json output to check"
    )
    p_bench.add_argument(
        "--baseline", type=str, default="BENCH_simulator.json",
        help="committed baseline JSON (default: BENCH_simulator.json)",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=1.25, metavar="X",
        help="fail when a benchmark's mean exceeds baseline x X (default: 1.25)",
    )
    p_bench.set_defaults(func=cmd_bench_report)

    p_all = sub.add_parser("all", help="run every experiment (slow)")
    _add_flags(
        p_all,
        ("--mix", "-r", "--processors", "--scale", "--csv", "--workers", "--cache-dir"),
    )
    p_all.set_defaults(func=cmd_all)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Entry point: 0 on success.

    A reader that closes stdout early (``repro sweep run SPEC | head -1``)
    ends the command quietly with :data:`EXIT_BROKEN_PIPE` instead of a
    ``BrokenPipeError`` traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The Python docs recipe: point stdout at the null device, so the
        # interpreter's own flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
