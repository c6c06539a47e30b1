"""Workload runner: pairing, replication aggregation, relative RTs."""

import pytest

from repro.core.policies import DYN_AFF, DYNAMIC, EQUIPARTITION
from repro.measure.runner import relative_response_times, run_mix
from repro.measure.workloads import WorkloadMix
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison

#: A cut-down heterogeneous mix so runner tests stay fast.
SMALL_MIX = WorkloadMix(90, {"MVA": 1, "GRAVITY": 0, "MATRIX": 0})


class TestRunMix:
    def test_returns_metrics_per_job(self):
        result = run_mix(SMALL_MIX, DYNAMIC, seed=0)
        assert set(result.jobs) == {"MVA"}
        assert result.jobs["MVA"].response_time > 0

    def test_same_seed_same_workload_across_policies(self):
        """Common random numbers: work is identical across policies."""
        a = run_mix(SMALL_MIX, DYNAMIC, seed=5)
        b = run_mix(SMALL_MIX, EQUIPARTITION, seed=5)
        assert a.jobs["MVA"].work == pytest.approx(b.jobs["MVA"].work, rel=1e-9)

    def test_different_seeds_different_workloads(self):
        a = run_mix(SMALL_MIX, DYNAMIC, seed=0)
        b = run_mix(SMALL_MIX, DYNAMIC, seed=1)
        assert a.jobs["MVA"].work != b.jobs["MVA"].work

    def test_policy_recorded(self):
        assert run_mix(SMALL_MIX, DYN_AFF, seed=0).policy == "Dyn-Aff"


class TestComparePolicies:
    """Replications of Table 2 mix 1 (two MVAs), summarized per policy."""

    @pytest.fixture(scope="class")
    def comparison(self):
        spec = SweepSpec(
            name="runner", kind="mix", mixes=(1,),
            policies=("Equipartition", "Dynamic"), seeds=3,
        )
        return mix_comparison(spec, run_sweep(spec).payloads, 1)

    def test_summaries_per_policy_per_job(self, comparison):
        assert set(comparison.policies()) == {"Equipartition", "Dynamic"}
        assert comparison.job_names() == ["MVA", "MVA-1"]

    def test_replication_count_respected(self, comparison):
        assert comparison.n_replications == 3
        assert comparison.summaries["Dynamic"]["MVA"].response_time.n == 3

    def test_relative_response_time(self, comparison):
        ratio = comparison.relative_response_time("Dynamic", "MVA", "Equipartition")
        assert 0.5 < ratio < 1.5

    def test_relative_table_excludes_baseline(self, comparison):
        table = relative_response_times(comparison)
        assert set(table) == {"Dynamic"}
        assert set(table["Dynamic"]) == {"MVA", "MVA-1"}

    def test_missing_baseline_rejected(self, comparison):
        with pytest.raises(KeyError):
            relative_response_times(comparison, baseline="NoSuchPolicy")

    def test_mean_response_time(self, comparison):
        jobs = comparison.summaries["Dynamic"]
        mean = comparison.mean_response_time("Dynamic")
        assert mean == pytest.approx(
            (jobs["MVA"].response_time.mean + jobs["MVA-1"].response_time.mean) / 2
        )

    def test_job_summary_app_property(self, comparison):
        assert comparison.summaries["Dynamic"]["MVA-1"].app == "MVA"
