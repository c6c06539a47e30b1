"""Section 8: why this paper disagrees with earlier affinity studies.

Earlier work ([Squillante & Lazowska 89], [Mogul & Borg 91]) studied
*time sharing* and found affinity important; this paper studies *space
sharing* and finds it nearly irrelevant.  Section 8 argues the two are
consistent: time sharing maximizes involuntary mid-computation switches
and inter-job cache interference, so it is the domain where affinity has
something to fix.

This benchmark runs workload #5 under both domains and verifies the
reconciliation quantitatively:

* space sharing beats time sharing outright (why the paper studies it);
* time sharing generates far more reallocations, dominated by
  involuntary ones;
* adding affinity to the time-sharing scheduler removes a much larger
  share of the cache penalty than adding it to the space-sharing one.
"""

import collections

import pytest

from benchmarks.conftest import run_once
from repro.core.policies import DYN_AFF, DYNAMIC, TIME_SHARING, TIME_SHARING_AFFINITY
from repro.measure.runner import run_mix
from repro.obs import Tracer
from repro.obs.records import Undispatch

MIX = 5
SEED = 1


def switch_counts(records):
    """(involuntary, voluntary) switches: quantum preemptions, and workers
    leaving at a thread boundary (yielding their next thread, or idle)."""
    reasons = collections.Counter(
        r.reason for r in records if isinstance(r, Undispatch)
    )
    return reasons["preempt"], reasons["yield"] + reasons["idle"]


@pytest.fixture(scope="module")
def runs():
    return {
        policy.name: run_mix(MIX, policy, seed=SEED)
        for policy in (TIME_SHARING, TIME_SHARING_AFFINITY, DYNAMIC, DYN_AFF)
    }


def test_section8_run(benchmark):
    tracer = Tracer()
    run_once(benchmark, run_mix, MIX, TIME_SHARING, seed=SEED, tracer=tracer)
    involuntary, voluntary = switch_counts(tracer.records)
    print()
    print(f"  time-sharing switches: {involuntary} involuntary, "
          f"{voluntary} voluntary")
    assert involuntary > 1000


class TestSection8Reconciliation:
    def test_space_sharing_beats_time_sharing(self, runs):
        """[Tucker & Gupta 89] et al.: space sharing is necessary for good
        performance — reproduced as a large response-time gap."""
        print()
        for name in ("TimeSharing", "TimeSharing-Aff", "Dynamic", "Dyn-Aff"):
            jobs = runs[name].jobs
            rts = {j: round(m.response_time, 1) for j, m in sorted(jobs.items())}
            pens = {j: round(m.cache_penalty_total, 2) for j, m in sorted(jobs.items())}
            print(f"  {name:16s} RT {rts}  cache penalty (s) {pens}")
        # Mean job response time: space sharing wins, and it wins big for
        # the barrier-synchronized GRAVITY (rotation makes its phases wait
        # behind MATRIX's quanta).
        assert runs["Dynamic"].mean_response_time() < 0.95 * runs[
            "TimeSharing"
        ].mean_response_time()
        assert (
            runs["Dynamic"].jobs["GRAVITY"].response_time
            < 0.75 * runs["TimeSharing"].jobs["GRAVITY"].response_time
        )

    def test_time_sharing_reallocates_far_more(self, runs):
        for job in ("MATRIX", "GRAVITY"):
            assert (
                runs["TimeSharing"].jobs[job].n_reallocations
                > 2 * runs["Dynamic"].jobs[job].n_reallocations
            )

    def test_affinity_fixes_more_under_time_sharing(self, runs):
        """The reconciliation: the fraction of cache penalty that affinity
        scheduling eliminates is far larger in the time-sharing domain."""
        def total_penalty(name):
            return sum(m.cache_penalty_total for m in runs[name].jobs.values())

        ts_saved = 1 - total_penalty("TimeSharing-Aff") / total_penalty("TimeSharing")
        ss_saved = 1 - total_penalty("Dyn-Aff") / total_penalty("Dynamic")
        print(f"\n  cache penalty removed by affinity: "
              f"time sharing {ts_saved:.0%}, space sharing {ss_saved:.0%}")
        # Affinity has real work to do in the time-sharing domain ...
        assert ts_saved > 0.25
        # ... and time sharing generates more penalty to begin with.
        assert total_penalty("TimeSharing") > total_penalty("Dynamic")

    def test_space_sharing_penalties_are_negligible(self, runs):
        """Under space sharing the whole cache penalty is a tiny fraction
        of response time — the reason affinity cannot matter there."""
        for name in ("Dynamic", "Dyn-Aff"):
            for job, m in runs[name].jobs.items():
                assert m.cache_penalty_total < 0.10 * m.response_time, (name, job)
