"""Application specs: graph shapes match the paper's Figures 2-4."""

import random

import pytest

from repro.apps import APPLICATIONS, GRAVITY, MATRIX, MVA
from repro.apps.gravity import GravityParams, GravitySpec
from repro.apps.matrix import MatrixParams, MatrixSpec
from repro.apps.mva import MvaParams, MvaSpec


def rng():
    return random.Random(42)


class TestRegistry:
    def test_all_three_applications_present(self):
        assert set(APPLICATIONS) == {"MVA", "MATRIX", "GRAVITY"}

    def test_specs_have_descriptions(self):
        for spec in APPLICATIONS.values():
            assert spec.description


class TestMva:
    def test_wavefront_ramp_up_and_down(self):
        """Parallelism slowly grows to min(N, K) and then shrinks (Fig 2)."""
        spec = MvaSpec(MvaParams(customers=6, stations=6, service_jitter=0.0))
        graph = spec.build_graph(rng())
        profile = graph.parallelism_profile(16)
        # Wave widths 1,2,...,6,...,2,1: every level 1..6 appears.
        assert set(profile.time_at_level) == {1, 2, 3, 4, 5, 6}

    def test_thread_count_is_grid_size(self):
        spec = MvaSpec(MvaParams(customers=5, stations=7))
        assert spec.build_graph(rng()).n_threads == 35

    def test_dependencies_follow_recurrence(self):
        """Cell (n, k) runs after (n-1, k) and (n, k-1)."""
        spec = MvaSpec(MvaParams(customers=2, stations=2, service_jitter=0.0))
        graph = spec.build_graph(rng())
        # ids: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3
        assert graph.initially_ready() == [0]
        assert sorted(graph.complete(0)) == [1, 2]
        graph.complete(1)
        assert graph.complete(2) == [3]

    def test_acyclic(self):
        MVA.build_graph(rng()).validate_acyclic()

    def test_max_parallelism_hint(self):
        assert MvaSpec(MvaParams(customers=10, stations=4)).max_parallelism_hint() == 4

    def test_jitter_bounds_service_times(self):
        spec = MvaSpec(MvaParams(mean_service_s=0.1, service_jitter=0.2))
        graph = spec.build_graph(rng())
        times = graph.service_times
        assert all(0.08 <= t <= 0.12 for t in times)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MvaSpec(MvaParams(customers=0))
        with pytest.raises(ValueError):
            MvaSpec(MvaParams(service_jitter=1.5))


class TestMatrix:
    def test_flat_fan_no_dependencies(self):
        graph = MATRIX.build_graph(rng())
        assert len(graph.initially_ready()) == graph.n_threads

    def test_thread_count_is_block_count(self):
        spec = MatrixSpec(MatrixParams(n_blocks=16))
        assert spec.build_graph(rng()).n_threads == 16

    def test_massive_constant_parallelism(self):
        """Figure 3: nearly all time at full machine parallelism."""
        profile = MATRIX.build_graph(rng()).parallelism_profile(16)
        assert profile.time_at_level.get(16, 0.0) > 0.85
        assert profile.average_demand > 14

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MatrixSpec(MatrixParams(n_blocks=0))


class TestGravity:
    def test_five_phases_per_timestep(self):
        """1 sequential + 4 parallel phases, barriers between (Fig 4)."""
        params = GravityParams(n_timesteps=2)
        spec = GravitySpec(params)
        graph = spec.build_graph(rng())
        per_step = 1 + sum(p.n_threads for p in params.phases) + len(params.phases)
        assert graph.n_threads == 2 * per_step

    def test_sequential_phase_gates_parallel_work(self):
        spec = GravitySpec(GravityParams(n_timesteps=1))
        graph = spec.build_graph(rng())
        ready = graph.initially_ready()
        assert len(ready) == 1  # only the tree build

    def test_substantial_time_at_level_one(self):
        """The sequential fraction shows up as time at parallelism 1."""
        spec = GravitySpec(GravityParams(n_timesteps=5))
        profile = spec.build_graph(rng()).parallelism_profile(16)
        assert profile.time_at_level.get(1, 0.0) > 0.15

    def test_timesteps_chain(self):
        """Step t+1's tree build waits for step t's last barrier."""
        spec = GravitySpec(GravityParams(n_timesteps=2))
        graph = spec.build_graph(rng())
        graph.validate_acyclic()
        profile = graph.parallelism_profile(1000)
        max_level = max(profile.time_at_level)
        biggest_phase = max(p.n_threads for p in GravityParams().phases)
        assert max_level <= biggest_phase

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GravitySpec(GravityParams(n_timesteps=0))
        with pytest.raises(ValueError):
            GravitySpec(GravityParams(phases=()))


class TestMakeJob:
    def test_worker_pool_capped_by_processors(self):
        job = MATRIX.make_job(rng(), n_processors=8)
        assert len(job.workers) == 8

    def test_instance_naming(self):
        assert MVA.make_job(rng(), instance=0).name == "MVA"
        assert MVA.make_job(rng(), instance=2).name == "MVA-2"

    def test_job_curve_derived_from_reference(self):
        job = GRAVITY.make_job(rng())
        expected = GRAVITY.reference.footprint_curve(
            __import__("repro.machine.params", fromlist=["SEQUENT_SYMMETRY"]).SEQUENT_SYMMETRY
        )
        assert job.curve == expected
