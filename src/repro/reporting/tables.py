"""ASCII rendering of the paper's tables."""

from __future__ import annotations

import typing

from repro.core.system import SystemResult
from repro.measure.penalty import PenaltyTable
from repro.measure.runner import MixComparison

Row = typing.Sequence[typing.Union[str, float, int]]


def format_table(
    headers: typing.Sequence[str],
    rows: typing.Iterable[Row],
    title: str = "",
) -> str:
    """Render a simple aligned ASCII table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: typing.Union[str, float, int]) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table1(table: PenaltyTable) -> str:
    """Table 1: P^A and P^NA (microseconds) per app per Q.

    One block per Q, mirroring the paper's layout: rows are the measured
    applications, the first column is P^NA, the remaining columns are P^A
    against each intervening workload.
    """
    blocks = []
    partners = list(table.partner_names)
    for q_s in table.quanta():
        headers = ["app", "P^NA"] + [f"P^A({p[:4]})" for p in partners]
        rows = []
        for app in table.apps():
            result = table.result(app, q_s)
            rows.append(
                [app, round(result.p_na_us)]
                + [round(result.p_a_us(p)) for p in partners]
            )
        blocks.append(
            format_table(headers, rows, title=f"Q = {q_s * 1000:.0f} msec. (values in usec.)")
        )
    return "\n\n".join(blocks)


def render_relative_rt_table(
    comparison: MixComparison, baseline: str = "Equipartition"
) -> str:
    """Figure 5/6 as a table: relative response times per policy per job."""
    policies = [p for p in comparison.policies() if p != baseline]
    headers = ["job"] + policies + [f"RT under {baseline} (s)"]
    rows = []
    for job in comparison.job_names():
        row: typing.List[typing.Union[str, float]] = [job]
        for policy in policies:
            row.append(round(comparison.relative_response_time(policy, job, baseline), 3))
        row.append(round(comparison.summaries[baseline][job].response_time.mean, 2))
        rows.append(row)
    return format_table(
        headers, rows, title=f"Workload #{comparison.mix.mix_id}: RT relative to {baseline}"
    )


def render_table3(
    comparison: MixComparison,
    policies: typing.Sequence[str] = ("Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"),
) -> str:
    """Table 3: influence of affinity on scheduling (per job per policy)."""
    headers = ["metric"] + [
        f"{policy[:12]}/{job}"
        for policy in policies
        for job in comparison.job_names()
    ]
    metric_rows: typing.List[Row] = []
    metrics = (
        ("%affinity", lambda s: f"{s.pct_affinity:.0f}%"),
        ("#reallocations", lambda s: f"{s.n_reallocations:.0f}"),
        ("realloc interval (ms)", lambda s: f"{s.reallocation_interval * 1000:.0f}"),
        ("response time (s)", lambda s: f"{s.response_time.mean:.1f}"),
    )
    for label, extract in metrics:
        row: typing.List[typing.Union[str, float]] = [label]
        for policy in policies:
            for job in comparison.job_names():
                row.append(extract(comparison.summaries[policy][job]))
        metric_rows.append(row)
    return format_table(
        headers,
        metric_rows,
        title=f"Workload #{comparison.mix.mix_id}: influence of affinity on scheduling",
    )


def render_table4(
    results: typing.Mapping[int, typing.Mapping[str, float]]
) -> str:
    """Table 4: average job response time for the homogeneous workloads.

    Args:
        results: ``{mix id: {policy name: mean RT seconds}}``.
    """
    policies = sorted({p for by_policy in results.values() for p in by_policy})
    headers = ["workload"] + policies
    rows = []
    for mix_id in sorted(results):
        row: typing.List[typing.Union[str, float]] = [f"#{mix_id}"]
        row.extend(round(results[mix_id].get(p, float("nan")), 2) for p in policies)
        rows.append(row)
    return format_table(
        headers, rows, title="Average job response time (homogeneous workloads, s)"
    )


def render_section8(
    mix_id: int, results: typing.Mapping[str, SystemResult]
) -> str:
    """Section 8: each job's response time, reallocations, affinity and
    cache penalty per policy (``results``: policy name -> one run)."""
    lines = [f"workload #{mix_id}: time sharing vs space sharing"]
    for name, result in results.items():
        for job, m in sorted(result.jobs.items()):
            lines.append(
                f"  {name:16s} {job:9s} RT {m.response_time:7.1f} s  "
                f"{m.n_reallocations:6d} reallocs  "
                f"{m.pct_affinity:3.0f}% affinity  "
                f"{m.cache_penalty_total:6.2f} s cache penalty"
            )
    return "\n".join(lines)
