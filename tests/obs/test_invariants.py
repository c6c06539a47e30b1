"""The invariant checker: unit violations and a seeded conservation bug.

Two layers of evidence that the oracle has teeth:

* hand-crafted record streams that each violate exactly one invariant
  and must be flagged;
* a real Dyn-Aff trace with its release records surgically removed —
  the classic double-allocation bug — which the checker must catch even
  though the stream came from a correct run.
"""

import dataclasses

import pytest

from repro.core.policies import DYN_AFF
from repro.measure.runner import run_mix
from repro.obs import Tracer
from repro.obs.invariants import assert_trace_ok, check_trace
from repro.obs.records import (
    AllocationChange,
    CacheFlush,
    CpuRecovery,
    Dispatch,
    JobArrival,
    JobDeparture,
    PolicyDecision,
    RunConfig,
    RunEnd,
    Undispatch,
)

CONFIG = RunConfig(
    time=0.0, policy="Dyn-Aff", n_processors=4, seed=0,
    jobs=("A", "B"), machine="test", cache_lines=64,
    miss_time_s=1e-6, context_switch_s=1e-4,
    respect_priority=True, use_affinity=True,
)


def violations(*records):
    return check_trace([CONFIG, *records])


class TestClockAndLifecycle:
    def test_clean_minimal_trace(self):
        assert_trace_ok(
            [
                CONFIG,
                JobArrival(time=0.0, job="A"),
                AllocationChange(time=0.0, cpu=0, job="A", prev=None),
                Dispatch(time=0.0, cpu=0, job="A", worker=0, affine=False,
                         cheap=False, penalty_s=0.0, switch_s=1e-4, ready_depth=1),
                Undispatch(time=1.0, cpu=0, job="A", worker=0, reason="done"),
                JobDeparture(time=1.0, job="A", response_time=1.0, n_reallocations=1),
                AllocationChange(time=1.0, cpu=0, job=None, prev="A"),
                RunEnd(time=1.0, makespan=1.0, events_fired=4),
            ]
        )

    def test_clock_must_be_monotone(self):
        found = violations(
            JobArrival(time=5.0, job="A"),
            JobArrival(time=1.0, job="B"),
        )
        assert any("clock" in v or "backward" in v for v in found)

    def test_departure_requires_arrival(self):
        found = violations(
            JobDeparture(time=1.0, job="A", response_time=1.0, n_reallocations=0)
        )
        assert found

    def test_departure_response_time_must_match_timestamps(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobDeparture(time=2.0, job="A", response_time=1.5, n_reallocations=0),
        )
        assert any("response" in v for v in found)

    def test_grant_to_departed_job_flagged(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobDeparture(time=1.0, job="A", response_time=1.0, n_reallocations=0),
            AllocationChange(time=2.0, cpu=0, job="A", prev=None),
        )
        assert any("departed" in v for v in found)


class TestAllocationConservation:
    def test_double_allocation_flagged(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobArrival(time=0.0, job="B"),
            AllocationChange(time=0.0, cpu=0, job="A", prev=None),
            AllocationChange(time=1.0, cpu=0, job="B", prev=None),
        )
        assert any("cpu 0" in v for v in found)

    def test_cpu_out_of_range_flagged(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            AllocationChange(time=0.0, cpu=99, job="A", prev=None),
        )
        assert any("99" in v for v in found)

    def test_over_allocation_flagged(self):
        records = [JobArrival(time=0.0, job="A"), JobArrival(time=0.0, job="B")]
        # 4-processor machine; grant 4 to A legally, then force a 5th
        # ownership by double-granting cpu 3 (prev lies to dodge the
        # conservation check and hit the ceiling check instead).
        for cpu in range(4):
            records.append(AllocationChange(time=0.0, cpu=cpu, job="A", prev=None))
        found = violations(*records, AllocationChange(time=0.0, cpu=3, job="A", prev=None))
        assert found

    def test_run_must_end_with_all_processors_free(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            AllocationChange(time=0.0, cpu=0, job="A", prev=None),
            RunEnd(time=1.0, makespan=1.0, events_fired=1),
        )
        assert any("end" in v for v in found)


class TestDispatchInvariants:
    def grant(self, job="A", cpu=0):
        return [
            JobArrival(time=0.0, job=job),
            AllocationChange(time=0.0, cpu=cpu, job=job, prev=None),
        ]

    def test_dispatch_on_unowned_cpu_flagged(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            Dispatch(time=0.0, cpu=2, job="A", worker=0, affine=False,
                     cheap=False, penalty_s=0.0, switch_s=1e-4, ready_depth=1),
        )
        assert any("own" in v for v in found)

    def test_worker_on_two_processors_flagged(self):
        found = violations(
            *self.grant(cpu=0),
            AllocationChange(time=0.0, cpu=1, job="A", prev=None),
            Dispatch(time=0.0, cpu=0, job="A", worker=0, affine=False,
                     cheap=False, penalty_s=0.0, switch_s=1e-4, ready_depth=1),
            Dispatch(time=0.0, cpu=1, job="A", worker=0, affine=False,
                     cheap=False, penalty_s=0.0, switch_s=1e-4, ready_depth=1),
        )
        assert any("worker" in v for v in found)

    def test_penalty_above_full_reload_flagged(self):
        found = violations(
            *self.grant(),
            Dispatch(time=0.0, cpu=0, job="A", worker=0, affine=False,
                     cheap=False,
                     penalty_s=CONFIG.cache_lines * CONFIG.miss_time_s * 2,
                     switch_s=1e-4, ready_depth=1),
        )
        assert any("penalty" in v for v in found)

    def test_cheap_dispatch_must_charge_nothing(self):
        found = violations(
            *self.grant(),
            Dispatch(time=0.0, cpu=0, job="A", worker=0, affine=True,
                     cheap=True, penalty_s=1e-5, switch_s=0.0, ready_depth=1),
        )
        assert any("cheap" in v for v in found)

    def test_undispatch_requires_presence(self):
        found = violations(
            *self.grant(),
            Undispatch(time=0.0, cpu=0, job="A", worker=0, reason="idle"),
        )
        assert found


class TestDecisionInvariants:
    def test_priority_dispatch_must_pick_most_deserving(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobArrival(time=0.0, job="B"),
            PolicyDecision(time=0.0, rule="priority", job="B", cpu=0,
                           reason="test", credits={"A": 2.0, "B": -1.0}),
        )
        assert any("most deserving" in v for v in found)

    def test_a1_grant_must_pass_credit_gate(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobArrival(time=0.0, job="B"),
            PolicyDecision(time=0.0, rule="A.1", job="A", cpu=0,
                           reason="test", credits={"A": -5.0, "B": 5.0}),
        )
        assert any("A.1" in v for v in found)

    def test_d3_needs_victim_with_multiple_processors(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobArrival(time=0.0, job="B"),
            PolicyDecision(time=0.0, rule="D.3", job="A", cpu=0, reason="test",
                           credits={"A": 0.0, "B": 0.0},
                           allocations={"A": 3, "B": 1}),
        )
        assert any("D.3" in v for v in found)

    def test_d3_beyond_parity_needs_credit(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobArrival(time=0.0, job="B"),
            PolicyDecision(time=0.0, rule="D.3", job="A", cpu=0, reason="test",
                           credits={"A": 0.0, "B": 0.0},
                           allocations={"A": 2, "B": 2}),
        )
        assert any("parity" in v for v in found)

    def test_equipartition_targets_bounded_by_machine(self):
        found = violations(
            JobArrival(time=0.0, job="A"),
            PolicyDecision(time=0.0, rule="EQ", job=None, cpu=None,
                           reason="test", allocations={"A": 3, "B": 3}),
        )
        assert any("equipartition" in v for v in found)


class TestViolationText:
    def test_full_strings_of_several_kinds(self):
        """The exact text, ``[index] t=time kind: `` prefix included, of
        each violation kind below: tools and people grep for it."""
        found = violations(
            JobArrival(time=0.0, job="A"),
            JobDeparture(time=1.0, job="C", response_time=1.0, n_reallocations=0),
            JobDeparture(time=2.0, job="A", response_time=1.5, n_reallocations=0),
            AllocationChange(time=3.0, cpu=99, job="B", prev=None),
            CacheFlush(time=3.5, cpu=0, lines=65),
            CpuRecovery(time=4.0, cpu=2),
            JobArrival(time=4.25, job="B"),
            AllocationChange(time=4.25, cpu=1, job="B", prev=None),
            Dispatch(time=4.25, cpu=1, job="B", worker=0, affine=False,
                     cheap=False, penalty_s=-1.0, switch_s=1e-4, ready_depth=1),
            JobArrival(time=1.0 / 3.0, job="D"),
            RunEnd(time=5.0, makespan=5.0, events_fired=9),
        )
        assert found == [
            "[2] t=1.000000000 job_departure: job 'C' departed without arriving",
            "[3] t=2.000000000 job_departure: job 'A' reports response_time=1.5"
            " but trace shows 2.0",
            "[4] t=3.000000000 alloc: cpu 99 outside machine of 4 processors",
            "[4] t=3.000000000 alloc: cpu 99 granted to 'B' before its arrival",
            "[5] t=3.500000000 cache_flush: cache flush of 65 lines outside [0, 64]",
            "[6] t=4.000000000 cpu_recovery: cpu 2 recovered without having failed",
            "[9] t=4.250000000 dispatch: negative reload penalty -1.0",
            "[10] t=0.333333333 job_arrival: clock ran backwards"
            " (0.3333333333333333 < 4.25)",
            "[11] t=5.000000000 run_end: run ended with owned processors [1, 99]",
            "[11] t=5.000000000 run_end: run ended with placed workers [('B', 0)]",
            "[11] t=5.000000000 run_end: jobs ['B', 'D'] arrived but neither"
            " departed nor were cancelled (work conservation violated)",
        ]


class TestSeededConservationBug:
    """The ISSUE's acceptance demo: break a real trace, the oracle objects."""

    def test_dropping_releases_triggers_conservation_failure(self):
        tracer = Tracer()
        run_mix(5, DYN_AFF, seed=0, tracer=tracer)
        assert check_trace(tracer.records) == []
        # Seed the bug: a scheduler that forgets to release processors.
        # Every AllocationChange with job=None (a release) disappears, so
        # the next grant of that processor looks like a double allocation.
        buggy = [
            r for r in tracer.records
            if not (isinstance(r, AllocationChange) and r.job is None)
        ]
        found = check_trace(buggy)
        assert found, "the oracle must flag the seeded conservation bug"
        assert any("owned by" in v or "cpu" in v for v in found)

    def test_corrupting_response_time_is_flagged(self):
        tracer = Tracer()
        run_mix(5, DYN_AFF, seed=0, tracer=tracer)
        corrupted = [
            dataclasses.replace(r, response_time=r.response_time * 1.001)
            if isinstance(r, JobDeparture) else r
            for r in tracer.records
        ]
        assert any("response" in v for v in check_trace(corrupted))
