"""Performance of the simulation substrates themselves.

Unlike the experiment benchmarks (which run once and check shapes), these
use pytest-benchmark's repeated timing to track the throughput of the
hot paths: the event queue, the cache simulator, the footprint model, and
a full scheduling run.  Regressions here make every experiment slower.
"""

import functools
import os
import random
import time

import pytest

from repro.apps import APPLICATIONS
from repro.apps.reference import ReferenceGenerator, ReferenceSpec
from repro.core.policies import DYN_AFF, DYNAMIC, EQUIPARTITION
from repro.core.system import SchedulingSystem
from repro.engine.queue import EventQueue
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.machine.backends import numpy_available
from repro.machine.batching import DEFAULT_CHUNK
from repro.machine.cache import SetAssociativeCache
from repro.machine.footprint import FootprintCurve, FootprintModel
from repro.machine.params import SEQUENT_SYMMETRY
from repro.measure.penalty import PenaltyExperiment
from repro.measure.runner import run_mix
from repro.measure.workloads import make_jobs
from repro.obs import Tracer
from repro.obs.store import iter_columnar, write_columnar
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison
from tests.core.helpers import flat_job, phased_job


def test_event_queue_throughput(benchmark):
    """Push + pop 10k events through the binary heap."""

    def churn():
        queue = EventQueue()
        for i in range(10_000):
            queue.push(float(i % 97), lambda: None)
        while queue:
            queue.pop()

    benchmark(churn)


def test_simulator_event_dispatch(benchmark):
    """Fire 10k self-scheduling events through the run loop."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()

    benchmark(run)


def test_cache_simulator_throughput(benchmark):
    """100k accesses against the full 4096-line Symmetry cache.

    Drives the batched hot path the Section 4 regime loops use:
    DEFAULT_CHUNK-sized ``access_batch`` calls (the per-chunk driver
    overhead is included, pre-chunking is not — the drivers reuse their
    chunk lists the same way).
    """
    cache = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    blocks = [(i * 7) % 6000 for i in range(100_000)]
    chunks = [
        blocks[i : i + DEFAULT_CHUNK] for i in range(0, len(blocks), DEFAULT_CHUNK)
    ]

    def churn():
        access_batch = cache.access_batch
        for chunk in chunks:
            access_batch("t", chunk)

    benchmark(churn)


def test_cache_simulator_scalar_throughput(benchmark):
    """The same 100k accesses through the scalar one-call-per-touch API.

    Tracked alongside the batched benchmark so the speedup ratio of the
    batch path stays visible in CI history.
    """
    cache = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")

    def churn():
        access = cache.access
        for i in range(100_000):
            access("t", (i * 7) % 6000)

    benchmark(churn)


@pytest.mark.skipif(not numpy_available(), reason="numpy backend requires numpy")
def test_cache_simulator_numpy_throughput(benchmark):
    """The same 100k accesses through the vectorized numpy backend.

    Chunks are prebuilt ``int64`` arrays — the backend's native columnar
    input.  Converting a 100k-element Python list to an array costs
    ~1.7 ms by itself (more than the whole kernel), so feeding lists
    would benchmark the conversion, not the cache.
    """
    import numpy as np

    cache = SetAssociativeCache(SEQUENT_SYMMETRY, backend="numpy")
    full = np.asarray([(i * 7) % 6000 for i in range(100_000)], dtype=np.int64)
    chunks = [
        full[i : i + DEFAULT_CHUNK] for i in range(0, full.shape[0], DEFAULT_CHUNK)
    ]

    def churn():
        access_batch = cache.access_batch
        for chunk in chunks:
            access_batch("t", chunk)

    benchmark(churn)


@pytest.mark.skipif(not numpy_available(), reason="numpy backend requires numpy")
def test_cache_simulator_numpy_speedup_guard():
    """CI guard: the numpy backend beats the batched scalar path >= 5x.

    Times both backends on the 100k-access benchmark trace with
    interleaved min-of-N rounds, each preceded by an untimed warmup pass
    (the backends' working sets evict each other from the CPU cache, so
    an unwarmed interleave under-reports the vectorized kernel by
    ~20%).  Each backend gets its natural input: list chunks for the
    scalar loop, prebuilt ``int64`` array chunks for the columnar
    kernel.
    """
    import numpy as np

    blocks = [(i * 7) % 6000 for i in range(100_000)]
    list_chunks = [
        blocks[i : i + DEFAULT_CHUNK] for i in range(0, len(blocks), DEFAULT_CHUNK)
    ]
    full = np.asarray(blocks, dtype=np.int64)
    array_chunks = [
        full[i : i + DEFAULT_CHUNK] for i in range(0, full.shape[0], DEFAULT_CHUNK)
    ]

    def run(backend, chunks):
        cache = SetAssociativeCache(SEQUENT_SYMMETRY, backend=backend)
        access_batch = cache.access_batch
        for chunk in chunks:
            access_batch("t", chunk)

    def attempt():
        scalar_s = vector_s = float("inf")
        for _ in range(12):
            run("scalar", list_chunks)
            start = time.perf_counter()
            run("scalar", list_chunks)
            scalar_s = min(scalar_s, time.perf_counter() - start)
            run("numpy", array_chunks)
            start = time.perf_counter()
            run("numpy", array_chunks)
            vector_s = min(vector_s, time.perf_counter() - start)
        ratio = scalar_s / vector_s if vector_s else float("inf")
        print(
            f"\n100k batched cache accesses: scalar {scalar_s * 1e3:.2f}ms, "
            f"numpy {vector_s * 1e3:.2f}ms, speedup {ratio:.2f}x"
        )
        return ratio

    # A shared-runner noise burst can shave ~20% off a single attempt's
    # ratio, so allow up to three; a real kernel regression fails all of
    # them.
    ratios = []
    for _ in range(3):
        ratios.append(attempt())
        if ratios[-1] >= 5.0:
            break
    assert max(ratios) >= 5.0, (
        f"numpy backend speedup {max(ratios):.2f}x across "
        f"{len(ratios)} attempts (floor 5.0x)"
    )


def test_tracer_disabled_overhead():
    """CI guard: a disabled tracer must cost <5% on the cache hot path.

    Re-runs the 100k-access batched benchmark twice — bare cache versus a
    cache with a :class:`NullTracer` attached — and compares min-of-N
    timings.  The instrumented hot path's guard is one attribute load and
    branch per ``access_batch`` call (not per access), so the disabled
    path must be indistinguishable; 5% is pure noise margin.
    """
    from repro.obs import NullTracer

    blocks = [(i * 7) % 6000 for i in range(100_000)]
    chunks = [
        blocks[i : i + DEFAULT_CHUNK] for i in range(0, len(blocks), DEFAULT_CHUNK)
    ]

    def best_of(cache, rounds=7):
        access_batch = cache.access_batch
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for chunk in chunks:
                access_batch("t", chunk)
            best = min(best, time.perf_counter() - start)
        return best

    bare = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    nulled = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    nulled.attach_tracer(NullTracer(), cpu_id=0, clock=lambda: 0.0)

    base_s = best_of(bare)
    null_s = best_of(nulled)
    ratio = null_s / base_s if base_s else float("inf")
    print(
        f"\ndisabled-tracer overhead on 100k batched cache accesses: "
        f"bare {base_s * 1e3:.2f}ms, NullTracer {null_s * 1e3:.2f}ms, "
        f"ratio {ratio:.4f}x"
    )
    assert ratio <= 1.05, f"disabled tracer costs {ratio:.4f}x (budget 1.05x)"


def test_profiler_disabled_overhead():
    """CI guard: a disabled profiler must cost <5% on the cache hot path.

    Mirrors ``test_tracer_disabled_overhead`` for the span profiler: the
    instrumented ``access_batch`` guard is one attribute load and branch
    per batch when the attached profiler reports ``enabled == False``, so
    a :class:`NullSpanProfiler`-attached cache must time within noise of
    a bare one on the same 100k-access benchmark.
    """
    from repro.obs.profiling import NullSpanProfiler

    blocks = [(i * 7) % 6000 for i in range(100_000)]
    chunks = [
        blocks[i : i + DEFAULT_CHUNK] for i in range(0, len(blocks), DEFAULT_CHUNK)
    ]

    def best_of(cache, rounds=7):
        access_batch = cache.access_batch
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for chunk in chunks:
                access_batch("t", chunk)
            best = min(best, time.perf_counter() - start)
        return best

    bare = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    nulled = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    nulled.attach_profiler(NullSpanProfiler())

    base_s = best_of(bare)
    null_s = best_of(nulled)
    ratio = null_s / base_s if base_s else float("inf")
    print(
        f"\ndisabled-profiler overhead on 100k batched cache accesses: "
        f"bare {base_s * 1e3:.2f}ms, NullSpanProfiler {null_s * 1e3:.2f}ms, "
        f"ratio {ratio:.4f}x"
    )
    assert ratio <= 1.05, f"disabled profiler costs {ratio:.4f}x (budget 1.05x)"


def test_tracer_enabled_overhead():
    """CI guard: an enabled tracer must cost <5% on the cache hot path.

    Unlike the disabled-tracer guards above, this one runs *enabled*
    instrumentation: a plain :class:`Tracer`, the one ``--trace`` and
    sweeps with ``store_traces`` build, attached to the cache.  The cache
    hot path emits one :class:`CacheBatch` record per ``access_batch``
    call (not per access), so constructing and keeping the records
    amortizes to ~per-chunk cost and must stay within the same 5%
    envelope the disabled guards use.
    """
    from repro.obs import Tracer

    blocks = [(i * 7) % 6000 for i in range(100_000)]
    chunks = [
        blocks[i : i + DEFAULT_CHUNK] for i in range(0, len(blocks), DEFAULT_CHUNK)
    ]

    def one_pass(cache):
        access_batch = cache.access_batch
        for chunk in chunks:
            access_batch("t", chunk)

    bare = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    traced = SetAssociativeCache(SEQUENT_SYMMETRY, backend="scalar")
    tracer = Tracer()
    traced.attach_tracer(tracer, cpu_id=0, clock=lambda: 0.0)

    def attempt():
        # Interleaved min-of-N with untimed warmups, same discipline as
        # the numpy speedup guards: the two caches' working sets evict
        # each other, so back-to-back blocks mistime whichever runs
        # second.
        base_s = traced_s = float("inf")
        for _ in range(7):
            one_pass(bare)
            start = time.perf_counter()
            one_pass(bare)
            base_s = min(base_s, time.perf_counter() - start)
            one_pass(traced)
            start = time.perf_counter()
            one_pass(traced)
            traced_s = min(traced_s, time.perf_counter() - start)
        ratio = traced_s / base_s if base_s else float("inf")
        print(
            f"\nenabled-tracer overhead on 100k batched cache accesses: "
            f"bare {base_s * 1e3:.2f}ms, Tracer {traced_s * 1e3:.2f}ms, "
            f"ratio {ratio:.4f}x ({len(tracer.records)} records kept)"
        )
        return ratio

    # One noisy attempt must not fail the build; a real per-record cost
    # regression (the tracer runs per batch, not per access) fails all
    # three.
    ratios = []
    for _ in range(3):
        ratios.append(attempt())
        if ratios[-1] <= 1.05:
            break
    assert tracer.records, "tracer kept no records; guard is vacuous"
    assert min(ratios) <= 1.05, (
        f"enabled tracer costs {min(ratios):.4f}x across "
        f"{len(ratios)} attempts (budget 1.05x)"
    )


#: The Table 1 measured-application stream the generator benchmarks use.
_BENCH_REF = ReferenceSpec(
    data_blocks=3500, p_reuse=0.9875, refs_per_touch=20, reuse_window=1100
)


def test_reference_generator_throughput(benchmark):
    """100k touches from the batched scalar reference-stream engine."""
    gen = ReferenceGenerator(_BENCH_REF, random.Random(0), backend="scalar")

    def churn():
        for _ in range(0, 100_000, DEFAULT_CHUNK):
            gen.next_blocks(DEFAULT_CHUNK)

    benchmark(churn)


@pytest.mark.skipif(not numpy_available(), reason="numpy engine requires numpy")
def test_reference_generator_numpy_throughput(benchmark):
    """100k touches from the vectorized engine, fused array output.

    Warmed past the ring-fill point first (the benchmark stream appends
    its 1100th distinct block after ~88k touches) so the timed region is
    the steady-state vectorized parse, not the scalar warmup.
    """
    gen = ReferenceGenerator(_BENCH_REF, random.Random(0), backend="numpy")
    assert gen.backend_name == "numpy"
    gen.next_blocks_array(200_000)

    def churn():
        for _ in range(0, 100_000, DEFAULT_CHUNK):
            gen.next_blocks_array(DEFAULT_CHUNK)

    benchmark(churn)


@pytest.mark.skipif(not numpy_available(), reason="numpy engine requires numpy")
def test_reference_generator_numpy_speedup_guard():
    """CI guard: the numpy generator beats the scalar loop >= 2.2x.

    Mirrors ``test_cache_simulator_numpy_speedup_guard``: interleaved
    min-of-N rounds with untimed warmup passes, up to three attempts.
    Both engines play the same 100k-touch benchmark stream in
    DEFAULT_CHUNK chunks from ring-full steady state.  The measured
    steady-state speedup is ~4x (whole-call draws reach ~4.2x; chunked
    draws pay per-call parse overhead and land ~3.3x); the 2.2x floor
    leaves headroom
    for shared-runner noise while still catching a vectorization
    regression.
    """
    g_s = ReferenceGenerator(_BENCH_REF, random.Random(0), backend="scalar")
    g_v = ReferenceGenerator(_BENCH_REF, random.Random(0), backend="numpy")
    g_s.next_blocks(200_000)
    g_v.next_blocks_array(200_000)

    def run_scalar():
        for _ in range(0, 100_000, DEFAULT_CHUNK):
            g_s.next_blocks(DEFAULT_CHUNK)

    def run_vector():
        for _ in range(0, 100_000, DEFAULT_CHUNK):
            g_v.next_blocks_array(DEFAULT_CHUNK)

    def attempt():
        scalar_s = vector_s = float("inf")
        for _ in range(10):
            run_scalar()
            start = time.perf_counter()
            run_scalar()
            scalar_s = min(scalar_s, time.perf_counter() - start)
            run_vector()
            start = time.perf_counter()
            run_vector()
            vector_s = min(vector_s, time.perf_counter() - start)
        ratio = scalar_s / vector_s if vector_s else float("inf")
        print(
            f"\n100k generator touches: scalar {scalar_s * 1e3:.2f}ms, "
            f"numpy {vector_s * 1e3:.2f}ms, speedup {ratio:.2f}x"
        )
        return ratio

    ratios = []
    for _ in range(3):
        ratios.append(attempt())
        if ratios[-1] >= 2.2:
            break
    assert max(ratios) >= 2.2, (
        f"numpy generator speedup {max(ratios):.2f}x across "
        f"{len(ratios)} attempts (floor 2.2x)"
    )


def test_penalty_regime_throughput(benchmark):
    """One full-fidelity (scale=1) stationary+migrating measurement.

    The end-to-end number the batching work exists for: generator, cache
    and chunked driver together at the paper's real cache size.
    """
    experiment = PenaltyExperiment(
        scale=1, n_switches_target=5, min_run_s=0.25, backend="scalar"
    )

    def run():
        return experiment.measure(APPLICATIONS["MVA"], 0.05, partners=())

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.p_na_s > 0


@pytest.mark.skipif(not numpy_available(), reason="numpy engine requires numpy")
def test_penalty_regime_numpy_throughput(benchmark, monkeypatch):
    """One scale-16 MVA measurement against a MATRIX partner, numpy engines.

    The driver shape of the ``penalty`` benchmark workload (Table 1 at
    scale 16 on the numpy engine): stationary, migrating and multiprog
    regimes, with the partner's stream read between the measured
    program's slices.  ``extra_info`` records, for one more, untimed,
    run, the numpy sorting-kernel passes per slice and the touches they
    see per touch played.
    """
    from repro.machine import batching
    from repro.machine.backends.numpy_backend import NumpyBackend
    from repro.measure import penalty

    experiment = PenaltyExperiment(scale=16, backend="numpy")

    def run():
        return experiment.measure(
            APPLICATIONS["MVA"], 0.1, partners=(APPLICATIONS["MATRIX"],)
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert 0 < result.p_a_s("MATRIX") < result.p_na_s

    counts = {"kernel": 0, "kernel_touches": 0, "slices": 0, "played": 0}
    kernel = NumpyBackend._kernel

    def counted_kernel(self, base, blocks, want_flags):
        counts["kernel"] += 1
        counts["kernel_touches"] += len(blocks)
        return kernel(self, base, blocks, want_flags)

    slice_loop = batching.play

    def play(*args, **kwargs):
        counts["slices"] += 1
        played, left, total = slice_loop(*args, **kwargs)
        counts["played"] += played
        return played, left, total

    monkeypatch.setattr(NumpyBackend, "_kernel", counted_kernel)
    monkeypatch.setattr(batching, "play", play)
    monkeypatch.setattr(penalty, "play", play)
    run()
    benchmark.extra_info["kernel_calls_per_slice"] = round(
        counts["kernel"] / counts["slices"], 3
    )
    benchmark.extra_info["kernel_touches_per_played_touch"] = round(
        counts["kernel_touches"] / counts["played"], 3
    )


def test_footprint_model_throughput(benchmark):
    """10k note_run/reload_penalty cycles (the DES hot path)."""
    model = FootprintModel(SEQUENT_SYMMETRY)
    curve = FootprintCurve(w_max=2000, tau=0.05)

    def churn():
        for i in range(10_000):
            task = f"t{i % 20}"
            cpu = i % 16
            model.reload_penalty(task, cpu)
            model.note_run(task, cpu, 0.05, curve)

    benchmark(churn)


def test_scheduling_run_small(benchmark):
    """A small two-job scheduling run, end to end."""

    def run():
        jobs = [phased_job("A", 4, 8, 0.05, 4), flat_job("B", 16, 0.5, 4)]
        return SchedulingSystem(jobs, DYN_AFF, n_processors=8, seed=0).run()

    result = benchmark(run)
    assert result.jobs


def test_scheduling_run_full_mix(benchmark):
    """Workload #5 under Dyn-Aff: the workhorse of the experiment suite."""
    result = benchmark.pedantic(
        run_mix, args=(5, DYN_AFF), kwargs={"seed": 0}, rounds=3, iterations=1
    )
    assert result.jobs


def test_make_jobs_throughput(benchmark):
    """Build and validate the three job graphs of Table 2 mix 6 (seed 0)."""
    jobs = benchmark(lambda: make_jobs(6, RngRegistry(0)))
    assert len(jobs) == 3


def test_allocator_new_work(benchmark):
    """3000 ``Allocator.new_work`` calls on a steady-state closed-mix system.

    Mix 6 under Dyn-Aff, run to t = 10 s: all three jobs are live and
    want more processors than they hold, so each call runs the D.1-D.3
    attempt the scheduler makes on almost every thread completion.
    """

    def steady_system():
        rng = RngRegistry(0)
        jobs = make_jobs(6, rng.spawn("workload"))
        system = SchedulingSystem(jobs, DYN_AFF, seed=0, rng=rng.spawn("system"))
        system.run(until=10.0)
        return (system,), {}

    def churn(system):
        new_work = system.allocator.new_work
        jobs = system.jobs
        for _ in range(1000):
            for job in jobs:
                new_work(job)
        return [job.n_owned for job in jobs]

    owned = benchmark.pedantic(churn, setup=steady_system, rounds=10, iterations=1)
    assert sum(owned) == 16


@functools.lru_cache(maxsize=None)
def _mix5_trace():
    """The trace of Table 2 mix 5 under Dyn-Aff, seed 0 (about 19k records)."""
    tracer = Tracer()
    run_mix(5, DYN_AFF, seed=0, tracer=tracer)
    return tuple(tracer.records)


def test_columnar_write_throughput(benchmark, tmp_path):
    """Store the mix 5 trace as a columnar file (chunk, transpose, compress)."""
    records = _mix5_trace()
    path = str(tmp_path / "t.rct")
    count = benchmark.pedantic(
        write_columnar, args=(path, records), rounds=5, iterations=1
    )
    assert count == len(records)


def test_columnar_read_throughput(benchmark, tmp_path):
    """Read the stored mix 5 trace back into typed records."""
    records = _mix5_trace()
    path = str(tmp_path / "t.rct")
    write_columnar(path, records)
    back = benchmark.pedantic(
        lambda: list(iter_columnar(path)), rounds=5, iterations=1
    )
    assert len(back) == len(records)


def test_parallel_replication_speedup():
    """Wall-clock speedup of the sweep fan-out over replications.

    Runs a multi-policy comparison of Table 2 mix 3 (one MVA, one
    GRAVITY) serially and at 4 workers.  The results must be identical
    (deterministic per-cell seeds, ordered commits); the speedup assertion
    only applies on machines with >= 4 cores — on smaller boxes the ratio
    is still printed for the record.
    """
    spec = SweepSpec(
        name="bench-parallel",
        kind="mix",
        mixes=(3,),
        policies=(EQUIPARTITION.name, DYNAMIC.name, DYN_AFF.name),
        seeds=8,
    )

    def timed(workers):
        start = time.perf_counter()
        sweep = run_sweep(spec, workers=workers)
        comparison = mix_comparison(spec, sweep.payloads, 3)
        return time.perf_counter() - start, comparison

    serial_s, serial = timed(1)
    parallel_s, parallel = timed(4)
    for policy in serial.policies():
        for job, expected in serial.summaries[policy].items():
            assert parallel.summaries[policy][job].response_time.mean == \
                expected.response_time.mean

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(
        f"\nparallel sweep fan-out: serial {serial_s:.2f}s, "
        f"4 workers {parallel_s:.2f}s, speedup {speedup:.2f}x "
        f"({os.cpu_count()} cores)"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0
