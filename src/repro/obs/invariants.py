"""Simulator-wide invariants, checked mechanically against a trace.

The trace emitted by an instrumented run is a complete account of every
allocation change, dispatch and policy decision.  That makes it a
*correctness oracle*: instead of asserting on end-of-run aggregates, the
checks here replay the record stream and verify that the scheduling
system never violated its own rules at any instant:

* **monotone clock** — record timestamps never decrease;
* **allocation conservation** — every processor has at most one owner,
  every ownership change's ``prev`` matches the replayed state (a grant
  of an already-owned processor — the classic double-allocation bug —
  fails here), cpu ids stay within the machine, and equipartition
  targets never sum past the machine size;
* **single placement** — no worker on two processors, no processor
  running two workers, and every dispatch lands on a processor its job
  owns at that instant;
* **lifecycle** — jobs are granted processors only between arrival and
  departure (and never after cancellation), departure response times
  equal the arrival/departure timestamps, and the run ends with every
  processor free;
* **work conservation at run end** — every job that arrived either
  departed or was explicitly cancelled; a stripped or missing
  cancellation record is flagged as lost work;
* **disruptions** — a processor fails only while free and online, is
  never granted or dispatched onto while offline, recovers only from
  the failed state, and cache flushes stay within the machine's line
  count;
* **priority order (Dyn-Aff)** — every priority dispatch picked the
  most-deserving requester, every A.1 affinity grant passed the credit
  gate, and every D.3 preemption was licensed by the credit scheme
  (re-derived from the credits snapshotted in the decision record);
* **cache accounting** — every charged reload penalty is non-negative
  and bounded by the machine's full-cache reload cost (the footprint
  model's hard cap), and cheap same-processor pickups charge nothing.

``check_trace`` returns a list of human-readable violations (empty =
clean); ``assert_trace_ok`` wraps it for tests.  Both are thin wrappers
over :class:`StreamingChecker`, which applies the same checks one record
at a time with memory bounded by the *live* simulator state (O(jobs +
processors), independent of trace length) — ``check_trace`` over
:func:`repro.reporting.obs_export.stream_trace` checks a trace file
without a record list ever existing.
"""

from __future__ import annotations

import typing

from repro.core.priority import CreditScheduler
from repro.obs.records import (
    AllocationChange,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    JobArrival,
    JobCancelled,
    JobDeparture,
    PolicyDecision,
    RunConfig,
    RunEnd,
    TraceRecord,
    Undispatch,
)

#: slack for float comparisons on derived (not identical-operation) values
_EPS = 1e-9


class _State:
    """Replayed simulator state while walking the record stream."""

    def __init__(self) -> None:
        self.config: typing.Optional[RunConfig] = None
        self.owner: typing.Dict[int, str] = {}          # cpu -> owning job
        self.placed: typing.Dict[typing.Tuple[str, int], int] = {}  # worker -> cpu
        self.on_cpu: typing.Dict[int, typing.Tuple[str, int]] = {}  # cpu -> worker
        self.arrived: typing.Dict[str, float] = {}
        self.departed: typing.Set[str] = set()
        self.cancelled: typing.Dict[str, float] = {}
        self.offline: typing.Set[int] = set()
        self.last_time = float("-inf")


class StreamingChecker:
    """Single-pass invariant oracle: feed records as they are emitted.

    Applies exactly the checks :func:`check_trace` applies, in the same
    order, producing the same violation strings — but one record at a
    time, so a trace read from a file record by record is checked without
    ever being materialized.  Memory use is the replayed simulator state
    plus the violations found: O(jobs + processors), independent of how
    many records flow through.
    """

    def __init__(self) -> None:
        self._state = _State()
        self.violations: typing.List[str] = []
        self._index = 0

    def feed(self, record: TraceRecord) -> None:
        """Check one record against the replayed state and advance it."""
        state = self._state
        violations = self.violations
        found = len(violations)

        time = record.time
        if time < state.last_time - _EPS:
            violations.append(f"clock ran backwards ({time} < {state.last_time})")
        if time > state.last_time:
            state.last_time = time

        check = _CHECKS.get(type(record))
        if check is not None:
            check(state, record, violations)
        if len(violations) != found:
            # Checks append bare messages; only a record that broke one
            # pays for formatting its ``[index] t=time kind`` prefix.
            where = f"[{self._index}] t={record.time:.9f} {record.kind}"
            violations[found:] = [f"{where}: {v}" for v in violations[found:]]
        self._index += 1


def check_trace(records: typing.Iterable[TraceRecord]) -> typing.List[str]:
    """Replay ``records`` and return every invariant violation found."""
    checker = StreamingChecker()
    for record in records:
        checker.feed(record)
    return checker.violations


def assert_trace_ok(records: typing.Iterable[TraceRecord]) -> None:
    """Raise AssertionError listing every violation in ``records``."""
    violations = check_trace(records)
    if violations:
        summary = "\n  ".join(violations[:20])
        more = f"\n  ... and {len(violations) - 20} more" if len(violations) > 20 else ""
        raise AssertionError(
            f"{len(violations)} trace invariant violation(s):\n  {summary}{more}"
        )


# ---------------------------------------------------------------------- #
# per-record checks: one function per record class, ``(state, record,
# violations)``, found by :data:`_CHECKS`


def _note_config(
    state: _State, record: RunConfig, violations: typing.List[str]
) -> None:
    state.config = record


def _note_arrival(
    state: _State, record: JobArrival, violations: typing.List[str]
) -> None:
    state.arrived[record.job] = record.time


def _check_cpu_recovery(
    state: _State, record: CpuRecovery, violations: typing.List[str]
) -> None:
    if record.cpu not in state.offline:
        violations.append(f"cpu {record.cpu} recovered without having failed")
    state.offline.discard(record.cpu)


def _check_cache_flush(
    state: _State, record: CacheFlush, violations: typing.List[str]
) -> None:
    if state.config is not None and not 0 <= record.lines <= state.config.cache_lines:
        violations.append(
            f"cache flush of {record.lines} lines outside "
            f"[0, {state.config.cache_lines}]"
        )


def _check_run_end(
    state: _State, record: RunEnd, violations: typing.List[str]
) -> None:
    if state.owner:
        violations.append(f"run ended with owned processors {sorted(state.owner)}")
    if state.placed:
        violations.append(f"run ended with placed workers {sorted(state.placed)}")
    lost = sorted(
        name
        for name in state.arrived
        if name not in state.departed and name not in state.cancelled
    )
    if lost:
        violations.append(
            f"jobs {lost} arrived but neither departed nor "
            "were cancelled (work conservation violated)"
        )


def _check_departure(
    state: _State, record: JobDeparture, violations: typing.List[str]
) -> None:
    arrival = state.arrived.get(record.job)
    if arrival is None:
        violations.append(f"job {record.job!r} departed without arriving")
        return
    if record.job in state.departed:
        violations.append(f"job {record.job!r} departed twice")
    state.departed.add(record.job)
    expected = record.time - arrival
    if record.response_time != expected:
        violations.append(
            f"job {record.job!r} reports response_time="
            f"{record.response_time!r} but trace shows {expected!r}"
        )


def _check_cancellation(
    state: _State, record: JobCancelled, violations: typing.List[str]
) -> None:
    if record.job in state.departed:
        violations.append(
            f"job {record.job!r} cancelled after departing"
        )
    if record.job in state.cancelled:
        violations.append(f"job {record.job!r} cancelled twice")
    if record.work_done < 0:
        violations.append(
            f"job {record.job!r} cancelled with negative "
            f"work_done {record.work_done}"
        )
    state.cancelled[record.job] = record.time


def _check_cpu_failure(
    state: _State, record: CpuFailure, violations: typing.List[str]
) -> None:
    n_procs = state.config.n_processors if state.config else None
    if n_procs is not None and not 0 <= record.cpu < n_procs:
        violations.append(
            f"cpu {record.cpu} outside machine of {n_procs} processors"
        )
    if record.cpu in state.offline:
        violations.append(f"cpu {record.cpu} failed while already offline")
    if record.cpu in state.owner:
        violations.append(
            f"cpu {record.cpu} failed while owned by "
            f"{state.owner[record.cpu]!r} (must be released first)"
        )
    if record.cpu in state.on_cpu:
        violations.append(
            f"cpu {record.cpu} failed while running worker "
            f"{state.on_cpu[record.cpu]}"
        )
    state.offline.add(record.cpu)


def _check_alloc(
    state: _State, record: AllocationChange, violations: typing.List[str]
) -> None:
    n_procs = state.config.n_processors if state.config else None
    if n_procs is not None and not 0 <= record.cpu < n_procs:
        violations.append(
            f"cpu {record.cpu} outside machine of {n_procs} processors"
        )
    current = state.owner.get(record.cpu)
    if current != record.prev:
        violations.append(
            f"cpu {record.cpu} owner is {current!r} but change "
            f"claims prev={record.prev!r} (conservation violated)"
        )
    if record.job is None:
        state.owner.pop(record.cpu, None)
    else:
        if current is not None and current != record.job:
            violations.append(
                f"cpu {record.cpu} granted to {record.job!r} while "
                f"owned by {current!r} (double allocation)"
            )
        if record.job not in state.arrived:
            violations.append(
                f"cpu {record.cpu} granted to {record.job!r} "
                "before its arrival"
            )
        if record.job in state.departed:
            violations.append(
                f"cpu {record.cpu} granted to departed job {record.job!r}"
            )
        if record.job in state.cancelled:
            violations.append(
                f"cpu {record.cpu} granted to cancelled job {record.job!r}"
            )
        if record.cpu in state.offline:
            violations.append(
                f"cpu {record.cpu} granted to {record.job!r} while offline"
            )
        state.owner[record.cpu] = record.job
    if n_procs is not None and len(state.owner) > n_procs:
        violations.append(
            f"{len(state.owner)} processors owned on a "
            f"{n_procs}-processor machine"
        )


def _check_dispatch(
    state: _State, record: Dispatch, violations: typing.List[str]
) -> None:
    worker = (record.job, record.worker)
    if state.owner.get(record.cpu) != record.job:
        violations.append(
            f"{record.job!r}#{record.worker} dispatched on cpu "
            f"{record.cpu} owned by {state.owner.get(record.cpu)!r}"
        )
    if worker in state.placed:
        violations.append(
            f"worker {worker} already running on cpu "
            f"{state.placed[worker]} (single placement violated)"
        )
    occupant = state.on_cpu.get(record.cpu)
    if occupant is not None:
        violations.append(
            f"cpu {record.cpu} already running worker {occupant} "
            "(single placement violated)"
        )
    state.placed[worker] = record.cpu
    state.on_cpu[record.cpu] = worker

    if record.penalty_s < 0:
        violations.append(f"negative reload penalty {record.penalty_s}")
    if state.config is not None:
        cap = state.config.cache_lines * state.config.miss_time_s
        if record.penalty_s > cap + _EPS:
            violations.append(
                f"reload penalty {record.penalty_s} exceeds the "
                f"full-cache reload bound {cap} (occupancy accounting broken)"
            )
        if not record.cheap and record.switch_s != state.config.context_switch_s:
            violations.append(
                f"reallocation charged switch cost {record.switch_s}, "
                f"machine path length is {state.config.context_switch_s}"
            )
    if record.cheap and (record.penalty_s != 0.0 or record.switch_s != 0.0):
        violations.append(
            f"cheap pickup charged penalty={record.penalty_s} "
            f"switch={record.switch_s}"
        )


def _check_undispatch(
    state: _State, record: Undispatch, violations: typing.List[str]
) -> None:
    worker = (record.job, record.worker)
    if state.placed.get(worker) != record.cpu:
        violations.append(
            f"worker {worker} left cpu {record.cpu} but was on "
            f"{state.placed.get(worker)!r}"
        )
    state.placed.pop(worker, None)
    if state.on_cpu.get(record.cpu) == worker:
        del state.on_cpu[record.cpu]


def _check_decision(
    state: _State, record: PolicyDecision, violations: typing.List[str]
) -> None:
    credits = dict(record.credits)
    if record.rule == "priority" and record.job is not None and credits:
        best = min(credits, key=lambda name: (-credits[name], name))
        if record.job != best:
            violations.append(
                f"priority dispatch chose {record.job!r} but "
                f"{best!r} is most deserving ({credits})"
            )
    elif record.rule == "A.1" and record.job is not None and credits:
        mine = credits.get(record.job)
        if mine is not None:
            others = [v for name, v in credits.items() if name != record.job]
            gate = max(others) - CreditScheduler.EQUALITY_TOLERANCE if others else None
            if gate is not None and mine < gate - _EPS:
                violations.append(
                    f"A.1 grant to {record.job!r} (credit {mine}) "
                    f"despite a more deserving requester ({credits})"
                )
    elif record.rule == "D.3" and record.job is not None:
        allocations = dict(record.allocations)
        victims = [name for name in allocations if name != record.job]
        if len(victims) == 1:
            victim = victims[0]
            v_alloc = allocations[victim]
            r_alloc = allocations[record.job]
            if v_alloc <= 1:
                violations.append(
                    f"D.3 preempted {victim!r} holding only "
                    f"{v_alloc} processor(s)"
                )
            elif v_alloc <= r_alloc + 1:
                beyond = r_alloc - v_alloc + 2
                needed = beyond * CreditScheduler.SPEND_MARGIN
                advantage = credits.get(record.job, 0.0) - credits.get(victim, 0.0)
                if advantage <= needed - _EPS:
                    violations.append(
                        f"D.3 beyond parity without the credit to "
                        f"spend (advantage {advantage}, needed > {needed})"
                    )
    elif record.rule == "EQ" and state.config is not None:
        total = sum(record.allocations.values())
        if total > state.config.n_processors:
            violations.append(
                f"equipartition targets sum to {total} on a "
                f"{state.config.n_processors}-processor machine"
            )


#: record class -> its check; a class not listed (``CacheBatch``,
#: ``EngineEvent``) is checked only for the clock.
_CHECKS: typing.Dict[type, typing.Callable[..., None]] = {
    RunConfig: _note_config,
    JobArrival: _note_arrival,
    JobDeparture: _check_departure,
    JobCancelled: _check_cancellation,
    CpuFailure: _check_cpu_failure,
    CpuRecovery: _check_cpu_recovery,
    CacheFlush: _check_cache_flush,
    AllocationChange: _check_alloc,
    Dispatch: _check_dispatch,
    Undispatch: _check_undispatch,
    PolicyDecision: _check_decision,
    RunEnd: _check_run_end,
}
