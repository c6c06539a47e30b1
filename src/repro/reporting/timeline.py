"""ASCII per-CPU timelines: the run at a glance in a terminal.

:func:`render_gantt` draws who owned each processor when, one letter per
job, from the trace's ``AllocationChange`` records.  The charts make
policy behaviour directly visible: Equipartition's static bands,
Dynamic's churn at GRAVITY's barriers, NoPri's starvation stripes.

:func:`render_cpu_timeline` draws what each processor was doing, one row
per processor, one character per time column, states from the
attribution sweep:

* ``.`` — free (unallocated)
* ``=`` — held idle by its owning job
* ``s`` — executing a context switch
* ``r`` — reloading its cache (the affinity penalty, the paper's subject)
* ``#`` — useful compute

A column spanning multiple states shows the one the CPU spent the most
time in during that column (exact Fraction-weighted vote), so a
reload-heavy policy visibly streaks ``r`` after every reallocation wave.
"""

from __future__ import annotations

import typing
from fractions import Fraction

from repro.obs.analysis.attribution import cpu_state_segments
from repro.obs.records import AllocationChange, RunConfig, TraceRecord

#: state -> glyph, in increasing "interestingness" (ties break upward).
STATE_GLYPHS: typing.Dict[str, str] = {
    "free": ".",
    "held": "=",
    "switch": "s",
    "reload": "r",
    "compute": "#",
}

_STATE_RANK = {state: i for i, state in enumerate(STATE_GLYPHS)}


def render_cpu_timeline(
    records: typing.Sequence[TraceRecord],
    width: int = 80,
) -> str:
    """Render a trace as one timeline row per CPU.

    Args:
        records: a complete trace (``run_config`` first, ``run_end`` last).
        width: number of time columns.

    Raises:
        ValueError: on a malformed trace or non-positive width.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width!r}")
    config = records[0] if records else None
    if not isinstance(config, RunConfig):
        raise ValueError("timeline needs a trace starting with run_config")
    segments = cpu_state_segments(records)
    t0 = Fraction(config.time)
    end = Fraction(records[-1].time)
    span = end - t0
    lines = [
        f"cpu timeline  policy={config.policy}  seed={config.seed}  "
        f"span=[{float(t0):g}, {float(end):g}]s  "
        f"({float(span) / width:.4g}s/column)",
        "legend: " + "  ".join(f"{g}={s}" for s, g in STATE_GLYPHS.items()),
    ]
    if span <= 0:
        for cpu in sorted(segments):
            lines.append(f"cpu {cpu:>3} |" + " " * width + "|")
        return "\n".join(lines)
    column = span / width
    for cpu in sorted(segments):
        runs = segments[cpu]
        glyphs = []
        cursor = 0
        for i in range(width):
            lo = t0 + column * i
            hi = t0 + column * (i + 1)
            # Majority state within [lo, hi), exact overlap arithmetic.
            weights: typing.Dict[str, Fraction] = {}
            while cursor < len(runs) and Fraction(runs[cursor][1]) <= lo:
                cursor += 1
            j = cursor
            while j < len(runs):
                seg_lo, seg_hi, state = runs[j]
                if Fraction(seg_lo) >= hi:
                    break
                overlap = min(hi, Fraction(seg_hi)) - max(lo, Fraction(seg_lo))
                if overlap > 0:
                    weights[state] = weights.get(state, Fraction(0)) + overlap
                j += 1
            if not weights:
                glyphs.append(STATE_GLYPHS["free"])
                continue
            best = max(weights.items(), key=lambda kv: (kv[1], _STATE_RANK[kv[0]]))
            glyphs.append(STATE_GLYPHS[best[0]])
        lines.append(f"cpu {cpu:>3} |{''.join(glyphs)}|")
    return "\n".join(lines)


def render_gantt(records: typing.Sequence[TraceRecord], width: int = 80) -> str:
    """ASCII Gantt chart of processor ownership from a trace's records.

    One row per processor with at least one ``AllocationChange``; the
    columns split ``[0, end]`` evenly, where ``end`` is the last record's
    time (the ``run_end`` of a complete trace).  Each cell shows the job
    that owned the processor for the largest share of that column
    (``.`` = mostly free, blank = before the processor's first change);
    a tie goes to the owner whose interval came first.  Legend letters go
    to jobs in the order of each processor's first recorded change, then
    in event order within that processor (not in global time order).

    Raises:
        ValueError: if ``width`` is below 10.
    """
    if width < 10:
        raise ValueError("width must be at least 10")
    changes: typing.Dict[int, typing.List[typing.Tuple[float, typing.Optional[str]]]] = {}
    for record in records:
        if isinstance(record, AllocationChange):
            changes.setdefault(record.cpu, []).append((record.time, record.job))
    end = records[-1].time if records else 0.0
    if not changes or end <= 0:
        return "(empty trace)"
    jobs = list(dict.fromkeys(
        job for events in changes.values() for _, job in events if job is not None
    ))
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    code = {job: letters[i % len(letters)] for i, job in enumerate(jobs)}
    code[None] = "."
    bucket = end / width
    lines = []
    for cpu in sorted(changes):
        events = changes[cpu]
        # Ownership intervals, the last one closed at ``end``; zero-length
        # ones (several changes at one instant) are dropped.
        segments = [
            (start, stop, job)
            for (start, job), (stop, _) in zip(events, events[1:] + [(end, None)])
            if stop > start
        ]
        row = []
        for column in range(width):
            lo = column * bucket
            hi = lo + bucket
            share: typing.Dict[typing.Optional[str], float] = {}
            for start, stop, job in segments:
                overlap = min(stop, hi) - max(start, lo)
                if overlap > 0:
                    share[job] = share.get(job, 0.0) + overlap
            row.append(code[max(share, key=share.__getitem__)] if share else " ")
        lines.append(f"cpu{cpu:3d} |" + "".join(row) + "|")
    lines.append(f"        0s{' ' * (width - 12)}{end:8.1f}s")
    lines.append(
        "legend: " + "  ".join(f"{code[j]} = {j}" for j in jobs) + "  . = free"
    )
    return "\n".join(lines)
