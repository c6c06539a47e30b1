"""Table 2 workload mixes."""

import pytest

from repro.engine.rng import RngRegistry
from repro.measure.workloads import MIXES, WorkloadMix, make_jobs


class TestTable2:
    """The mixes exactly as printed in the paper."""

    def test_six_mixes(self):
        assert sorted(MIXES) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize(
        "mix_id,expected",
        [
            (1, {"MVA": 2, "MATRIX": 0, "GRAVITY": 0}),
            (2, {"MVA": 1, "MATRIX": 1, "GRAVITY": 0}),
            (3, {"MVA": 1, "MATRIX": 0, "GRAVITY": 1}),
            (4, {"MVA": 0, "MATRIX": 0, "GRAVITY": 2}),
            (5, {"MVA": 0, "MATRIX": 1, "GRAVITY": 1}),
            (6, {"MVA": 1, "MATRIX": 1, "GRAVITY": 1}),
        ],
    )
    def test_copies(self, mix_id, expected):
        assert dict(MIXES[mix_id].copies) == expected

    def test_homogeneous_flags(self):
        """Mixes #1 and #4 are the homogeneous ones (Table 4)."""
        def is_homogeneous(mix):
            return sum(1 for n in mix.copies.values() if n > 0) == 1

        assert is_homogeneous(MIXES[1])
        assert is_homogeneous(MIXES[4])
        assert not any(is_homogeneous(MIXES[m]) for m in (2, 3, 5, 6))

    def test_job_counts(self):
        assert [MIXES[m].n_jobs for m in range(1, 7)] == [2, 2, 2, 2, 2, 3]


class TestMakeJobs:
    def test_job_names_follow_convention(self):
        jobs = make_jobs(1, RngRegistry(0))
        assert [j.name for j in jobs] == ["MVA", "MVA-1"]

    def test_mix6_has_one_of_each(self):
        jobs = make_jobs(6, RngRegistry(0))
        assert [j.name for j in jobs] == ["MVA", "MATRIX", "GRAVITY"]

    def test_copies_are_statistically_distinct(self):
        """Two copies of MVA get different jitter (different rng streams)."""
        a, b = make_jobs(1, RngRegistry(0))
        times_a = a.graph.service_times[:5]
        times_b = b.graph.service_times[:5]
        assert times_a != times_b

    def test_same_seed_same_workload(self):
        first = make_jobs(5, RngRegistry(3))
        second = make_jobs(5, RngRegistry(3))
        for x, y in zip(first, second):
            assert x.graph.total_work() == pytest.approx(y.graph.total_work())

    def test_accepts_mix_object(self):
        mix = WorkloadMix(99, {"MVA": 1})
        jobs = make_jobs(mix, RngRegistry(0))
        assert len(jobs) == 1

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            make_jobs(WorkloadMix(99, {"MVA": 0}), RngRegistry(0))

    def test_worker_pools_capped_by_processors(self):
        jobs = make_jobs(6, RngRegistry(0), n_processors=8)
        assert all(len(j.workers) <= 8 for j in jobs)
