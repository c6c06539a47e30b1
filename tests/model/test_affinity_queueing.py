"""The Squillante & Lazowska affinity-queueing baseline model."""

import dataclasses

import pytest

from repro.model.affinity_queueing import (
    POLICIES,
    AffinityQueueingModel,
    QueueingConfig,
    compare_disciplines,
)

#: The configuration the benchmark uses: moderate multiprogramming, a
#: large footprint, decent survival — S&L's "pronounced effect" regime.
SL_CONFIG = QueueingConfig(
    n_processors=4,
    n_tasks=5,
    mean_service_s=0.002,
    mean_think_s=0.004,
    footprint_lines=3000,
    survival=0.7,
)


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            QueueingConfig(n_processors=0)
        with pytest.raises(ValueError):
            QueueingConfig(n_tasks=0)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            QueueingConfig(mean_service_s=0.0)
        with pytest.raises(ValueError):
            QueueingConfig(mean_think_s=-1.0)

    def test_rejects_bad_survival(self):
        with pytest.raises(ValueError):
            QueueingConfig(survival=1.0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            QueueingConfig(policy="LIFO")

    def test_rejects_zero_completions(self):
        with pytest.raises(ValueError):
            AffinityQueueingModel(SL_CONFIG).run(0)


class TestMechanics:
    def test_completions_counted(self):
        stats = AffinityQueueingModel(SL_CONFIG, seed=1).run(500)
        assert stats.completions == 500
        assert stats.dispatches >= stats.completions

    def test_deterministic_given_seed(self):
        a = AffinityQueueingModel(SL_CONFIG, seed=7).run(300)
        b = AffinityQueueingModel(SL_CONFIG, seed=7).run(300)
        assert a.mean_cycle_s == b.mean_cycle_s
        assert a.affine_dispatches == b.affine_dispatches

    def test_zero_footprint_means_zero_reload(self):
        config = dataclasses.replace(SL_CONFIG, footprint_lines=0.0)
        stats = AffinityQueueingModel(config, seed=1).run(300)
        assert stats.total_reload_s == 0.0

    def test_mean_cycle_covers_components(self):
        stats = AffinityQueueingModel(SL_CONFIG, seed=1).run(300)
        assert stats.mean_cycle_s >= stats.total_wait_s / stats.completions

    def test_single_processor_single_task_always_affine_after_first(self):
        config = QueueingConfig(
            n_processors=1, n_tasks=1, mean_service_s=0.01, mean_think_s=0.01,
            footprint_lines=1000, survival=0.5,
        )
        stats = AffinityQueueingModel(config, seed=2).run(200)
        # Every dispatch after the first returns to processor 0.
        assert stats.affine_dispatches == stats.dispatches - 1
        # ... and with no intervening tasks, reload happens only once.
        assert stats.total_reload_s == pytest.approx(1000 * 0.75e-6, rel=1e-6)


class TestDisciplines:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_disciplines(SL_CONFIG, n_completions=8000, seed=1)

    def test_all_policies_present(self, results):
        assert set(results) == set(POLICIES)

    def test_fixed_processor_is_perfectly_affine(self, results):
        stats = results["FP"]
        assert stats.affine_dispatches >= stats.dispatches - SL_CONFIG.n_tasks

    def test_affinity_ordering(self, results):
        """FP = 100% > LP/MI > FCFS in affinity hits."""
        assert results["FP"].pct_affinity > results["LP"].pct_affinity
        assert results["LP"].pct_affinity > results["FCFS"].pct_affinity + 20
        assert results["MI"].pct_affinity > results["FCFS"].pct_affinity + 20

    def test_reload_ordering(self, results):
        """More affinity, less reload."""
        reload = {
            name: stats.total_reload_s / stats.dispatches
            for name, stats in results.items()
        }
        assert reload["FP"] < reload["LP"]
        assert reload["LP"] < reload["FCFS"]
        assert reload["MI"] < reload["FCFS"]

    def test_affinity_helps_at_short_intervals(self, results):
        """S&L's conclusion: pronounced effect at time-sharing intervals."""
        fcfs = results["FCFS"].mean_cycle_s
        assert results["LP"].mean_cycle_s < 0.9 * fcfs
        assert results["MI"].mean_cycle_s < 0.9 * fcfs

    def test_effect_vanishes_at_space_sharing_intervals(self):
        """This paper's rebuttal: at ~400 ms run intervals the same
        disciplines are within a percent of FCFS."""
        config = dataclasses.replace(
            SL_CONFIG, mean_service_s=0.400, mean_think_s=0.800
        )
        results = compare_disciplines(config, n_completions=4000, seed=1)
        fcfs = results["FCFS"].mean_cycle_s
        for policy in ("LP", "MI"):
            assert results[policy].mean_cycle_s == pytest.approx(fcfs, rel=0.02)

    def test_fixed_binding_sacrifices_utilization_at_long_intervals(self):
        """FP's perfect affinity cannot save it from load imbalance —
        the queueing-model analog of Equipartition's waste."""
        config = dataclasses.replace(
            SL_CONFIG, mean_service_s=0.400, mean_think_s=0.800
        )
        results = compare_disciplines(config, n_completions=4000, seed=1)
        assert results["FP"].mean_cycle_s > 1.05 * results["FCFS"].mean_cycle_s
