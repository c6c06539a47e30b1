"""Trace diffing: why did two runs of the same mix behave differently?

``repro diff`` answers the paper's comparative questions ("why is
Dyn-Aff faster than Equipartition on this mix?") mechanically: given two
traces of the same job mix — different policies, seeds, or worker counts
— it reports

* per-job response-time deltas, *attributed to buckets* via
  :func:`repro.obs.analysis.attribution.attribute_time` (so a 30 s gap
  shows up as, say, -25 s processor-wait and -5 s reload penalty);
* the first divergent record overall and the first divergent *policy
  decision*, with the credit evidence both sides weighed at that point —
  the earliest mechanical cause of the divergence;
* per-rule decision-count deltas (how often each Section 5 rule fired).

Two bit-identical traces (e.g. the serial vs ``workers=2`` differential)
produce ``identical=True``, no divergence, and all-zero deltas — the
diff is itself a determinism check.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.obs.analysis.attribution import BUCKETS, attribute_time
from repro.obs.records import PolicyDecision, TraceRecord, record_to_dict

#: Trace-diff export schema identifier.
DIFF_SCHEMA = "repro.analysis.diff/1"


@dataclasses.dataclass(frozen=True)
class Divergence:
    """The first position where the two record streams disagree."""

    index: int
    a: typing.Optional[typing.Dict[str, typing.Any]]
    b: typing.Optional[typing.Dict[str, typing.Any]]


@dataclasses.dataclass(frozen=True)
class TraceDiff:
    """The aligned comparison of two traces (B relative to A)."""

    label_a: str
    label_b: str
    identical: bool
    #: job -> {"response_time_delta": float, "buckets": {bucket: delta}}
    job_deltas: typing.Dict[str, typing.Dict[str, typing.Any]]
    jobs_only_a: typing.Tuple[str, ...]
    jobs_only_b: typing.Tuple[str, ...]
    mean_response_delta: float
    makespan_delta: float
    #: machine-wide CPU-second totals per bucket (compute is nearly
    #: policy-invariant, so the interesting deltas land in reload /
    #: switch / wait / idle)
    totals_a: typing.Dict[str, float]
    totals_b: typing.Dict[str, float]
    first_divergence: typing.Optional[Divergence]
    first_divergent_decision: typing.Optional[Divergence]
    #: credit evidence at the first divergent decision: job -> (a, b)
    credit_differences: typing.Dict[
        str, typing.Tuple[typing.Optional[float], typing.Optional[float]]
    ]
    decision_rule_counts_a: typing.Dict[str, int]
    decision_rule_counts_b: typing.Dict[str, int]


def _first_divergence(
    seq_a: typing.Sequence[TraceRecord], seq_b: typing.Sequence[TraceRecord]
) -> typing.Optional[Divergence]:
    for i in range(max(len(seq_a), len(seq_b))):
        dict_a = record_to_dict(seq_a[i]) if i < len(seq_a) else None
        dict_b = record_to_dict(seq_b[i]) if i < len(seq_b) else None
        if dict_a != dict_b:
            return Divergence(index=i, a=dict_a, b=dict_b)
    return None


def _rule_counts(records: typing.Sequence[TraceRecord]) -> typing.Dict[str, int]:
    counts: typing.Dict[str, int] = {}
    for record in records:
        if isinstance(record, PolicyDecision):
            counts[record.rule] = counts.get(record.rule, 0) + 1
    return counts


def diff_traces(
    trace_a: typing.Sequence[TraceRecord],
    trace_b: typing.Sequence[TraceRecord],
    label_a: str = "a",
    label_b: str = "b",
) -> TraceDiff:
    """Align two traces of the same mix and explain their differences.

    Deltas are B minus A throughout; a negative ``response_time_delta``
    means the job finished *faster* under B.  Bucket deltas use the
    exact per-job attribution, so per job they sum exactly to the
    response-time delta.

    Raises:
        ValueError: if either trace lacks run_config/run_end framing
            (propagated from :func:`attribute_time`).
    """
    trace_a = list(trace_a)
    trace_b = list(trace_b)
    attr_a = attribute_time(trace_a)
    attr_b = attribute_time(trace_b)

    job_deltas: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
    common = sorted(set(attr_a.response_times) & set(attr_b.response_times))
    deltas: typing.List[float] = []
    for job in common:
        delta = float(attr_b.response_times[job] - attr_a.response_times[job])
        deltas.append(delta)
        job_deltas[job] = {
            "response_time_delta": delta,
            "buckets": {
                bucket: float(attr_b.per_job[job][bucket] - attr_a.per_job[job][bucket])
                for bucket in BUCKETS
            },
        }

    decisions_a = [r for r in trace_a if isinstance(r, PolicyDecision)]
    decisions_b = [r for r in trace_b if isinstance(r, PolicyDecision)]
    divergence = _first_divergence(trace_a, trace_b)
    decision_divergence = _first_divergence(decisions_a, decisions_b)

    credit_differences: typing.Dict[
        str, typing.Tuple[typing.Optional[float], typing.Optional[float]]
    ] = {}
    if decision_divergence is not None:
        credits_a = (decision_divergence.a or {}).get("credits") or {}
        credits_b = (decision_divergence.b or {}).get("credits") or {}
        for job in sorted(set(credits_a) | set(credits_b)):
            pair = (credits_a.get(job), credits_b.get(job))
            if pair[0] != pair[1]:
                credit_differences[job] = pair

    return TraceDiff(
        label_a=label_a,
        label_b=label_b,
        identical=divergence is None and len(trace_a) == len(trace_b),
        job_deltas=job_deltas,
        jobs_only_a=tuple(sorted(set(attr_a.response_times) - set(attr_b.response_times))),
        jobs_only_b=tuple(sorted(set(attr_b.response_times) - set(attr_a.response_times))),
        mean_response_delta=(sum(deltas) / len(deltas)) if deltas else 0.0,
        makespan_delta=float(
            (attr_b.makespan - attr_b.t0) - (attr_a.makespan - attr_a.t0)
        ),
        totals_a=attr_a.totals(),
        totals_b=attr_b.totals(),
        first_divergence=divergence,
        first_divergent_decision=decision_divergence,
        credit_differences=credit_differences,
        decision_rule_counts_a=_rule_counts(trace_a),
        decision_rule_counts_b=_rule_counts(trace_b),
    )
