"""ASCII rendering of the trace-analytics results.

Human-facing counterparts of the machine-readable exporters in
:mod:`repro.reporting.obs_export`: the attribution table, the interval
series, the trace-diff report, and the self-profile table, all built on
the same :func:`repro.reporting.tables.format_table` the paper tables
use.
"""

from __future__ import annotations

import typing

from repro.obs.analysis.attribution import BUCKETS, TimeAttribution
from repro.obs.analysis.diff import TraceDiff
from repro.obs.analysis.intervals import WINDOW_FIELDS, IntervalSeries
from repro.reporting.tables import format_table


def render_attribution_table(attribution: TimeAttribution) -> str:
    """The two-view decomposition as aligned ASCII tables."""
    span = float(attribution.makespan - attribution.t0)
    title = (
        f"time attribution  policy={attribution.policy}  "
        f"seed={attribution.seed}  makespan={span:.6g}s  "
        f"P={attribution.n_processors}"
    )
    cpu_rows: typing.List[typing.List[object]] = []
    for cpu in sorted(attribution.per_cpu):
        buckets = attribution.cpu_buckets(cpu)
        cpu_rows.append([f"cpu {cpu}"] + [buckets[b] for b in BUCKETS])
    totals = attribution.totals()
    cpu_rows.append(["total"] + [totals[b] for b in BUCKETS])
    cpu_table = format_table(
        ["cpu-seconds"] + list(BUCKETS), cpu_rows, title=title
    )
    job_rows: typing.List[typing.List[object]] = []
    for job in sorted(attribution.per_job):
        buckets = attribution.job_buckets(job)
        rt = attribution.response_times.get(job)
        job_rows.append(
            [job]
            + [buckets[b] for b in BUCKETS]
            + [float(rt) if rt is not None else ""]
        )
    job_table = format_table(
        ["wall-clock s"] + list(BUCKETS) + ["response"],
        job_rows,
        title="per-job decomposition (buckets sum exactly to response time)",
    )
    return cpu_table + "\n\n" + job_table


def render_interval_series(series: IntervalSeries, max_rows: int = 40) -> str:
    """The windowed series as an aligned ASCII table.

    Long runs are subsampled evenly to ``max_rows`` windows (the JSON/CSV
    exports always carry every window).
    """
    title = (
        f"interval series  policy={series.policy}  seed={series.seed}  "
        f"window={series.window_s:g}s  windows={len(series.windows)}"
    )
    windows = list(series.windows)
    if len(windows) > max_rows:
        step = len(windows) / max_rows
        windows = [windows[int(i * step)] for i in range(max_rows)]
        title += f"  (showing every ~{step:.1f}th)"
    rows = [[w[field] for field in WINDOW_FIELDS] for w in windows]
    return format_table(list(WINDOW_FIELDS), rows, title=title)


def render_diff_report(diff: TraceDiff) -> str:
    """The trace diff as a human-readable report."""
    lines = [
        f"trace diff  A={diff.label_a}  B={diff.label_b}",
        f"identical: {diff.identical}",
    ]
    if diff.identical:
        lines.append("the two traces are record-for-record identical")
        return "\n".join(lines)
    lines.append(
        f"mean response-time delta (B - A): {diff.mean_response_delta:+.6g}s"
        f"   makespan delta: {diff.makespan_delta:+.6g}s"
    )
    rows: typing.List[typing.List[object]] = []
    for job in sorted(diff.job_deltas):
        entry = diff.job_deltas[job]
        rows.append(
            [job, entry["response_time_delta"]]
            + [entry["buckets"][b] for b in BUCKETS]
        )
    lines.append("")
    lines.append(
        format_table(
            ["job", "rt delta"] + list(BUCKETS),
            rows,
            title="per-job response-time deltas, attributed (B - A, seconds)",
        )
    )
    totals_rows = [
        ["A " + diff.label_a] + [diff.totals_a[b] for b in BUCKETS],
        ["B " + diff.label_b] + [diff.totals_b[b] for b in BUCKETS],
        ["B - A"] + [diff.totals_b[b] - diff.totals_a[b] for b in BUCKETS],
    ]
    lines.append("")
    lines.append(
        format_table(
            ["cpu-seconds"] + list(BUCKETS),
            totals_rows,
            title="machine totals (compute is ~policy-invariant; the gap "
            "lives in reload/switch/wait/idle)",
        )
    )
    if diff.jobs_only_a or diff.jobs_only_b:
        lines.append("")
        lines.append(f"jobs only in A: {list(diff.jobs_only_a)}")
        lines.append(f"jobs only in B: {list(diff.jobs_only_b)}")
    if diff.first_divergence is not None:
        lines.append("")
        lines.append(f"first divergent record: index {diff.first_divergence.index}")
        lines.append(f"  A: {diff.first_divergence.a}")
        lines.append(f"  B: {diff.first_divergence.b}")
    if diff.first_divergent_decision is not None:
        d = diff.first_divergent_decision
        lines.append("")
        lines.append(f"first divergent policy decision: decision #{d.index}")
        lines.append(f"  A: {d.a}")
        lines.append(f"  B: {d.b}")
        if diff.credit_differences:
            lines.append("  credit evidence differing at that decision:")
            for job, (a, b) in sorted(diff.credit_differences.items()):
                lines.append(f"    {job}: A={a!r}  B={b!r}")
    counts = sorted(set(diff.decision_rule_counts_a) | set(diff.decision_rule_counts_b))
    if counts:
        rows = [
            [
                rule,
                diff.decision_rule_counts_a.get(rule, 0),
                diff.decision_rule_counts_b.get(rule, 0),
            ]
            for rule in counts
        ]
        lines.append("")
        lines.append(
            format_table(
                ["rule", "A", "B"], rows, title="Section 5 decisions per rule"
            )
        )
    return "\n".join(lines)


def render_profile_table(snapshot: typing.Mapping[str, typing.Any]) -> str:
    """A profile snapshot (:mod:`repro.obs.profiling`) as one row per
    module, sorted by self time."""
    wall_s = snapshot["wall_s"]
    ordered = sorted(
        snapshot["modules"].items(), key=lambda kv: (-kv[1]["self_s"], kv[0])
    )
    rows = [
        [
            name,
            data["calls"],
            data["self_s"],
            f"{100.0 * data['self_s'] / wall_s:.1f}%" if wall_s else "-",
        ]
        for name, data in ordered
    ]
    return format_table(
        ["module", "calls", "self s", "share"],
        rows,
        title=f"simulator self-profile (cProfile self time by module, "
        f"{wall_s:.3f} s profiled)",
    )
