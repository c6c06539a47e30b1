"""Property-based determinism and calibration checks for the open-system layer.

The contracts under test:

* a scenario instance is a pure function of (name, seed, machine size) —
  re-instantiating or re-running produces bit-identical timelines,
  traces, and metrics;
* the matrix sweep is chunking-invariant — any worker count produces
  output bit-identical to a serial sweep;
* arrival processes are prefix-stable — extending the horizon never
  rewrites history, which is exactly why parallel chunking can work;
* utilization targeting holds — the offered load of a Poisson stream
  built by ``for_utilization`` converges on the requested value.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.engine.rng import RngRegistry
from repro.obs import Tracer
from repro.sweep import SweepSpec, normalize_seeds, run_sweep
from repro.sweep.cells import matrix_comparison
from repro.workloads.opensys import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    built_in_scenarios,
    run_scenario,
)

P = 8
SCENARIO_NAMES = ("steady", "bursty", "cancellations", "failures")


def _scenario(name):
    return built_in_scenarios(lite=True, n_processors=P)[name]


# ---------------------------------------------------------------------- #
# bit-identical runs


@given(
    scenario_name=st.sampled_from(SCENARIO_NAMES),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_repeated_runs_are_bit_identical(scenario_name, seed):
    """Same (scenario, seed): identical trace records (and so metrics)."""
    def run():
        tracer = Tracer()
        result = run_scenario(
            _scenario(scenario_name), DYN_AFF, seed=seed, n_processors=P, tracer=tracer,
        )
        return tracer.records, result

    records_a, result_a = run()
    records_b, result_b = run()
    assert records_a == records_b
    assert result_a.response_times == result_b.response_times
    assert result_a.system.cancelled == result_b.system.cancelled


@given(
    scenario_name=st.sampled_from(SCENARIO_NAMES),
    seed=st.integers(0, 1000),
)
@settings(max_examples=10, deadline=None)
def test_instance_is_policy_free(scenario_name, seed):
    """Instantiation draws nothing from the policy: common random numbers."""
    scenario = _scenario(scenario_name)
    a = scenario.instantiate(seed, n_processors=P)
    b = scenario.instantiate(seed, n_processors=P)
    assert a.arrival_times == b.arrival_times
    assert a.cancellations == b.cancellations
    assert a.outages == b.outages
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert [j.graph.total_work() for j in a.jobs] == [
        j.graph.total_work() for j in b.jobs
    ]


@given(
    names=st.sets(st.sampled_from(SCENARIO_NAMES), min_size=1, max_size=2),
    seeds=st.integers(2, 3),
    workers=st.sampled_from([2, 3]),
    base_seed=st.integers(0, 50),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_matrix_workers_bit_identical_to_serial(names, seeds, workers, base_seed):
    """The matrix sweep is invariant to the worker count (any chunking)."""
    spec = SweepSpec(
        name="props", kind="opensys", scenarios=tuple(sorted(names)),
        policies=(DYN_AFF.name, EQUIPARTITION.name),
        seeds=normalize_seeds(seeds, base_seed), n_processors=P, lite=True,
    )

    def matrix(workers):
        sweep = run_sweep(spec, workers=workers, collect_metrics=True)
        return matrix_comparison(spec, sweep.payloads)

    serial = matrix(None)
    parallel = matrix(workers)
    assert serial.results == parallel.results
    assert serial.cells == parallel.cells
    assert serial.metrics == parallel.metrics


# ---------------------------------------------------------------------- #
# arrival-process properties


def _processes():
    return st.one_of(
        st.builds(
            PoissonArrivals,
            rate_per_s=st.floats(0.5, 20.0),
        ),
        st.builds(
            BurstyArrivals,
            burst_rate_per_s=st.floats(1.0, 20.0),
            idle_rate_per_s=st.floats(0.0, 0.5),
            mean_burst_s=st.floats(0.1, 2.0),
            mean_idle_s=st.floats(0.1, 2.0),
        ),
        st.builds(
            DiurnalArrivals,
            base_rate_per_s=st.floats(0.5, 20.0),
            amplitude=st.floats(0.0, 1.0),
            period_s=st.floats(0.5, 5.0),
        ),
    )


@given(
    process=_processes(),
    seed=st.integers(0, 10_000),
    horizon=st.floats(0.5, 8.0),
)
@settings(max_examples=50, deadline=None)
def test_arrivals_are_prefix_stable(process, seed, horizon):
    """Extending the horizon appends arrivals; it never rewrites them.

    This is the property that makes pre-sampled timelines chunk-safe:
    a draw made for time t can never depend on anything after t.
    """
    short = process.times(RngRegistry(seed).stream("arrivals"), horizon)
    long = process.times(RngRegistry(seed).stream("arrivals"), 2.0 * horizon)
    assert long[: len(short)] == short
    assert all(t >= horizon for t in long[len(short):])
    assert all(a <= b for a, b in zip(short, short[1:]))


@given(
    target=st.floats(0.1, 0.9),
    mean_work=st.floats(0.1, 5.0),
    n_processors=st.integers(2, 32),
    seed=st.integers(0, 100),
)
@settings(max_examples=25, deadline=None)
def test_poisson_offered_load_hits_target(target, mean_work, n_processors, seed):
    """Long-horizon offered load converges on the requested utilization."""
    process = PoissonArrivals.for_utilization(target, mean_work, n_processors)
    horizon = 4000.0 / process.rate_per_s  # ~4000 arrivals regardless of rate
    times = process.times(RngRegistry(seed).stream("arrivals"), horizon)
    offered = len(times) * mean_work / (n_processors * horizon)
    assert offered == pytest.approx(target, rel=0.10)


@pytest.mark.slow
def test_simulated_utilization_tracks_target():
    """A long steady run's measured utilization lands near the target.

    End-to-end: the arrival rate chosen by ``for_utilization`` pushes
    roughly ``target x P x horizon`` seconds of work through the actual
    scheduling system (makespan runs past the horizon while the tail
    drains, so the measured value sits slightly below the target).
    """
    import dataclasses

    steady = _scenario("steady")
    long_run = dataclasses.replace(steady, horizon_s=60.0, max_jobs=0)
    result = run_scenario(long_run, DYN_AFF, seed=0, n_processors=P)
    assert result.n_jobs > 100
    assert result.utilization == pytest.approx(0.5, abs=0.1)
