"""Replay exactness and serial-vs-parallel metrics determinism."""

import pytest

from repro.core.policies import DYN_AFF, DYNAMIC, EQUIPARTITION
from repro.measure.runner import run_mix
from repro.obs import Tracer
from repro.obs.replay import replay, verify_replay
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison


class TestReplayExactness:
    @pytest.mark.parametrize(
        "policy", (EQUIPARTITION, DYNAMIC, DYN_AFF), ids=lambda p: p.name
    )
    def test_trace_replays_to_exact_aggregates(self, policy):
        """ISSUE acceptance: replayed response times match bit-for-bit."""
        tracer = Tracer()
        result = run_mix(5, policy, seed=3, tracer=tracer)
        assert verify_replay(tracer.records, result) == []
        summary = replay(tracer.records)
        for name, metrics in result.jobs.items():
            assert summary.jobs[name].response_time == metrics.response_time
            assert summary.jobs[name].n_reallocations == metrics.n_reallocations
        assert summary.makespan == result.makespan

    def test_mean_response_time_matches(self):
        tracer = Tracer()
        result = run_mix(5, DYN_AFF, seed=0, tracer=tracer)
        summary = replay(tracer.records)
        assert summary.mean_response_time() == pytest.approx(
            result.mean_response_time(), rel=0, abs=0
        )

    def test_verify_replay_catches_missing_job(self):
        tracer = Tracer()
        result = run_mix(5, DYN_AFF, seed=0, tracer=tracer)
        from repro.obs.records import JobDeparture

        truncated = [
            r for r in tracer.records if not isinstance(r, JobDeparture)
        ]
        assert verify_replay(truncated, result)


    def test_verify_replay_catches_a_flipped_affine_flag(self):
        """Table 3's %affinity is checked: one non-cheap dispatch that
        claims the wrong affinity is a mismatch naming its job."""
        import dataclasses

        from repro.obs.records import Dispatch

        tracer = Tracer()
        result = run_mix(5, DYN_AFF, seed=0, tracer=tracer)
        records = list(tracer.records)
        index = next(
            i for i, r in enumerate(records)
            if isinstance(r, Dispatch) and not r.cheap
        )
        flipped = records[index]
        records[index] = dataclasses.replace(flipped, affine=not flipped.affine)
        problems = verify_replay(records, result)
        assert len(problems) == 1
        assert f"job {flipped.job!r}" in problems[0]
        assert "affinity" in problems[0]


class TestSerialParallelDifferential:
    """ISSUE satellite: workers=2 must produce identical metrics snapshots."""

    def run(self, workers):
        spec = SweepSpec(
            name="replay-differential", kind="mix", mixes=(5,),
            policies=(EQUIPARTITION.name, DYN_AFF.name), seeds=4,
        )
        sweep = run_sweep(spec, workers=workers, collect_metrics=True)
        return mix_comparison(spec, sweep.payloads, 5)

    @pytest.mark.slow
    def test_metrics_identical_across_worker_counts(self):
        serial = self.run(workers=None)
        parallel = self.run(workers=2)
        assert set(serial.metrics) == {"Equipartition", "Dyn-Aff"}
        # Exact dict equality: counters, gauges, histograms, bit-for-bit.
        assert serial.metrics == parallel.metrics
        # And the statistical summaries agree too (PR 1's guarantee).
        for policy in serial.policies():
            for job in serial.job_names():
                assert (
                    serial.summaries[policy][job].response_time.mean
                    == parallel.summaries[policy][job].response_time.mean
                )
