"""The shared Section 4 slice loop against the chunk-by-chunk referee.

``repro.machine.batching.play`` replays each slice's ``batch_limit``
chunks from per-touch hit flags.  The referees below are the drivers it
replaced, one ``Processor.touch_batch`` call per chunk, kept as
executable specifications (as ``_scalar_run_regime`` in
``test_penalty.py`` keeps the touch-by-touch loop).  Unlike that loop,
they share the slice loop's float arithmetic, so everything must agree
exactly: run results and every emitted trace record, ties included.
"""

import dataclasses
import typing

import pytest

import repro.machine.batching as batching
import repro.measure.intervening as intervening_module
import repro.measure.penalty as penalty_module
from repro.apps import MATRIX, MVA
from repro.apps.base import AppSpec
from repro.apps.reference import BlockReader, ReferenceGenerator
from repro.apps.refgen import numpy_available
from repro.engine.rng import RngRegistry
from repro.apps.reference import reduced_machine
from repro.machine.batching import batch_limit, worst_touch_cost
from repro.machine.cache import SetAssociativeCache
from repro.machine.cache_oracle import SimulatedCacheFootprint
from repro.machine.params import SEQUENT_SYMMETRY
from repro.machine.processor import Processor
from repro.measure.intervening import InterveningExperiment
from repro.measure.penalty import PenaltyExperiment, RegimeRun
from repro.obs.tracer import Tracer

FAST_SCALE = 64
BACKENDS = ("scalar", "numpy") if numpy_available() else ("scalar",)
#: Off any tie, on the Symmetry (see TestChunkedDriverEquivalence).
Q_OFF_TIE = 0.0501003
#: Dyadic times make every cost exact: at scale 64 an MVA hit costs
#: 1280 units of 2**-23 s and a miss 2560, so slices that end on an
#: exact 0.0 budget are common under a quantum of whole hits.
TIE_MACHINE = dataclasses.replace(
    SEQUENT_SYMMETRY, hit_time_s=2.0 ** -23, miss_time_s=1281 * 2.0 ** -29
)
Q_TIE = 150 * 1280 * 2.0 ** -23
CASES = [(SEQUENT_SYMMETRY, Q_OFF_TIE), (TIE_MACHINE, Q_TIE)]


def _measured_reader(exp, app: AppSpec, rng: RngRegistry, n_touches: int):
    gen = ReferenceGenerator(
        app.reference.reduced(exp.scale), rng.stream("app"), backend=exp.backend
    )
    return BlockReader(gen, total=n_touches)


def _play_chunks(proc, owner, reader, budget, ref) -> float:
    """One partner slice, chunk by chunk; returns the budget left."""
    worst = worst_touch_cost(
        proc.spec.miss_time_s, proc.spec.hit_time_s, ref.refs_per_touch
    )
    while budget > 0.0:
        k = batch_limit(budget, worst)
        budget -= proc.touch_batch(owner, reader.take(k), ref.refs_per_touch)
    return budget


def _measured_chunks(
    proc, reader, q_s, ref, n_touches, on_switch
) -> typing.Tuple[float, int, int]:
    """The measured loop; returns (response time, switches, exact ties)."""
    worst = worst_touch_cost(
        proc.spec.miss_time_s, proc.spec.hit_time_s, ref.refs_per_touch
    )
    response_time = 0.0
    slice_left = q_s
    switches = ties = 0
    remaining = n_touches
    while remaining:
        n = min(remaining, batch_limit(slice_left, worst))
        cost = proc.touch_batch("measured", reader.take(n), ref.refs_per_touch)
        response_time += cost
        slice_left -= cost
        remaining -= n
        if slice_left <= 0.0:
            ties += slice_left == 0.0
            switches += 1
            slice_left = q_s
            on_switch()
    return response_time, switches, ties


def _chunked_run_regime(
    exp: PenaltyExperiment,
    app: AppSpec,
    q_s: float,
    regime: str,
    partner: typing.Optional[AppSpec],
    n_touches: int,
    tracer: Tracer,
) -> typing.Tuple[RegimeRun, int]:
    """The chunk-by-chunk regime driver; returns the run and its ties."""
    rng = RngRegistry(exp.seed).spawn(f"{app.name}/q{q_s:g}")
    reader = _measured_reader(exp, app, rng, n_touches)
    proc = Processor(0, exp.machine, tracer=tracer, backend=exp.backend)
    on_switch = lambda: None  # noqa: E731
    if regime == "migrating":
        on_switch = proc.flush_cache
    elif regime == "multiprog":
        partner_ref = partner.reference.reduced(exp.scale)
        partner_reader = BlockReader(
            ReferenceGenerator(partner_ref, rng.stream("partner"), backend=exp.backend)
        )

        def on_switch():
            _play_chunks(proc, "partner", partner_reader, q_s, partner_ref)

    rt, switches, ties = _measured_chunks(
        proc, reader, q_s, app.reference.reduced(exp.scale), n_touches, on_switch
    )
    run = RegimeRun(
        response_time=rt, n_switches=switches, hit_rate=proc.cache.stats.hit_rate
    )
    return run, ties


def _chunked_intervening_run(
    exp: InterveningExperiment,
    app: AppSpec,
    partner: AppSpec,
    q_s: float,
    n_intervening: int,
    tracer: Tracer,
) -> typing.Tuple[float, int]:
    """The chunk-by-chunk intervening-task driver (-1 = flush)."""
    rng = RngRegistry(exp.seed).spawn(f"{app.name}/{q_s:g}")
    app_ref = app.reference.reduced(exp.scale)
    partner_ref = partner.reference.reduced(exp.scale)
    total_seconds = max(2.0, exp.n_switches_target * q_s)
    n_touches = int(total_seconds / (app_ref.refs_per_touch * exp.machine.hit_time_s))
    reader = _measured_reader(exp, app, rng, n_touches)
    readers = [
        BlockReader(
            ReferenceGenerator(partner_ref, rng.stream(f"partner{i}"), backend=exp.backend)
        )
        for i in range(max(0, n_intervening))
    ]
    proc = Processor(0, exp.machine, tracer=tracer, backend=exp.backend)

    def on_switch():
        if n_intervening < 0:
            proc.flush_cache()
        for index, partner_reader in enumerate(readers):
            _play_chunks(proc, f"partner{index}", partner_reader, q_s, partner_ref)

    rt, switches, _ = _measured_chunks(proc, reader, q_s, app_ref, n_touches, on_switch)
    return rt, switches


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("machine,q_s", CASES, ids=["off-tie", "tie"])
@pytest.mark.parametrize("regime,partner", [
    ("stationary", None),
    ("migrating", None),
    ("multiprog", MATRIX),
])
def test_penalty_regime_matches_chunk_referee(backend, machine, q_s, regime, partner):
    kwargs = dict(
        machine=machine, scale=FAST_SCALE, n_switches_target=10, min_run_s=0.4,
        backend=backend,
    )
    want_trace = Tracer()
    referee = PenaltyExperiment(**kwargs)
    n_touches = referee._touch_count(MVA, q_s)
    want, ties = _chunked_run_regime(
        referee, MVA, q_s, regime, partner, n_touches, want_trace
    )
    got_trace = Tracer()
    exp = PenaltyExperiment(tracer=got_trace, **kwargs)
    stream = exp._measured_stream(MVA, q_s, n_touches)
    got = exp._run_regime(MVA, q_s, regime, partner, n_touches, stream)
    assert got == want
    assert got_trace.records == want_trace.records
    assert (ties > 0) == (q_s == Q_TIE)


@pytest.mark.skipif(not numpy_available(), reason="numpy engine requires numpy")
def test_slices_spanning_many_windows_commit_every_window(monkeypatch):
    """A window cap far below a slice's length: slices classify several
    windows, and the cache must still end each slice where the chunk
    loop leaves it (low-locality touches, so a lost window shows)."""
    import random

    from repro.machine.backends.numpy_backend import NumpyBackend

    spec = reduced_machine(SEQUENT_SYMMETRY, 16)
    rng = random.Random(5)
    stream = [rng.randrange(0, 4 * spec.cache_lines) for _ in range(40_000)]
    budget = 500 * spec.miss_time_s
    chunked = Processor(0, spec, backend="numpy")
    referee = BlockReader.over(stream)
    monkeypatch.setattr(NumpyBackend, "max_window", 64)
    windows = []
    hit_flags = SetAssociativeCache.hit_flags
    monkeypatch.setattr(
        SetAssociativeCache,
        "hit_flags",
        lambda *args: windows.append(1) or hit_flags(*args),
    )
    proc = Processor(0, spec, backend="numpy")
    reader = BlockReader.over(stream)
    for step, owner in enumerate("abab"):
        before = len(windows)
        got = batching.play(proc, owner, reader, budget, 1)
        assert len(windows) - before > 2
        worst = worst_touch_cost(spec.miss_time_s, spec.hit_time_s, 1)
        left, total, played = budget, 0.0, 0
        while left > 0.0:
            n = batch_limit(left, worst)
            cost = chunked.touch_batch(owner, referee.take(n), 1)
            total += cost
            left -= cost
            played += n
        assert got == (played, left, total)
        assert proc.cache._backend.snapshot() == chunked.cache._backend.snapshot()
        assert proc.cache.stats == chunked.cache.stats
        assert proc.busy_time == chunked.busy_time


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("machine,q_s", CASES, ids=["off-tie", "tie"])
@pytest.mark.parametrize("k", [-1, 0, 2])
def test_intervening_run_matches_chunk_referee(monkeypatch, backend, machine, q_s, k):
    exp = InterveningExperiment(
        machine=machine, scale=FAST_SCALE, n_switches_target=10, backend=backend
    )
    want_trace = Tracer()
    want = _chunked_intervening_run(exp, MVA, MATRIX, q_s, k, want_trace)
    got_trace = Tracer()
    monkeypatch.setattr(
        intervening_module,
        "Processor",
        lambda *args, **kwargs: Processor(*args, tracer=got_trace, **kwargs),
    )
    got = exp._run(
        MVA, MATRIX, q_s, n_intervening=k, stream=exp._measured_stream(MVA, q_s)
    )
    assert got == want
    assert got_trace.records == want_trace.records


class _ChunkedOracle:
    """The cache oracle's chunk-by-chunk stint loop (``elapsed`` form)."""

    def __init__(self, spec, machine, scale, seed, backend):
        self.ref = spec.reduced(scale)
        self.reduced = reduced_machine(machine, scale)
        self.rng = RngRegistry(seed)
        self.backend = backend
        self.caches = {}
        self.readers = {}
        self.touches_simulated = 0

    def note_run(self, task, processor, duration):
        cache = self.caches.setdefault(
            processor, SetAssociativeCache(self.reduced, backend=self.backend)
        )
        reader = self.readers.get(task)
        if reader is None:
            reader = BlockReader(
                ReferenceGenerator(
                    self.ref, self.rng.stream(str(task)), backend=self.backend
                )
            )
            self.readers[task] = reader
        hit_cost = self.ref.refs_per_touch * self.reduced.hit_time_s
        miss_cost = worst_touch_cost(
            self.reduced.miss_time_s, self.reduced.hit_time_s, self.ref.refs_per_touch
        )
        elapsed = 0.0
        while elapsed < duration:
            n = batch_limit(duration - elapsed, miss_cost)
            hits = cache.access_batch(task, reader.take(n))
            elapsed += hits * hit_cost + (n - hits) * miss_cost
            self.touches_simulated += n
        return cache.footprint(task)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("machine,q_s", CASES, ids=["off-tie", "tie"])
def test_oracle_stints_match_chunk_referee(backend, machine, q_s):
    """Stints stop after the same touch: same touch count, same state."""
    oracle = SimulatedCacheFootprint(
        {"MVA": MVA.reference}, machine=machine, scale=FAST_SCALE, seed=3,
        backend=backend,
    )
    referee = _ChunkedOracle(MVA.reference, machine, FAST_SCALE, 3, backend)
    tasks = [("MVA", 0), ("MVA", 1), ("MVA", 2)]
    for step in range(24):
        task = tasks[step % 3]
        processor = step % 2
        duration = q_s * (1 + step % 4) if step % 5 else 0.0
        oracle.note_run(task, processor, duration, None)
        footprint = referee.note_run(task, processor, duration)
        assert oracle.touches_simulated == referee.touches_simulated
        assert oracle.surviving_footprint(task, processor) == footprint
    for processor, cache in referee.caches.items():
        got = oracle._processors[processor].cache._backend.snapshot()
        assert got == cache._backend.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_keeps_its_elapsed_arithmetic(backend):
    """Stints where ``duration - elapsed`` and a countdown ``left -= cost``
    round to different stopping touches: the oracle keeps the former."""
    oracle = SimulatedCacheFootprint(
        {"MVA": MVA.reference}, scale=FAST_SCALE, seed=3, backend=backend
    )
    referee = _ChunkedOracle(MVA.reference, SEQUENT_SYMMETRY, FAST_SCALE, 3, backend)
    for step in range(6):
        task = ("MVA", step % 2)
        oracle.note_run(task, 0, 0.004, None)
        referee.note_run(task, 0, 0.004)
        assert oracle.touches_simulated == referee.touches_simulated


@pytest.mark.skipif(not numpy_available(), reason="numpy engine requires numpy")
def test_numpy_kernel_calls_per_slice(monkeypatch):
    """Count gate: a slice costs at most three numpy engine calls, and
    its touches pass the sorting kernel about once.

    A seeded scale-16 MVA run against a MATRIX partner: every measured
    and partner slice is one ``play`` call.  Classifying a window is the
    kernel pass; committing a played prefix of it writes back from the
    classified layout.  The counts are a property of the window rule,
    not of the host.
    """
    from repro.machine.backends.numpy_backend import NumpyBackend

    counts = {"engine": 0, "slices": 0, "kernel": 0, "kernel_touches": 0, "played": 0}

    def counted(method, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in ("access_batch", "access_flags"):
        monkeypatch.setattr(
            NumpyBackend, name, counted(getattr(NumpyBackend, name), "engine")
        )
    kernel = NumpyBackend._kernel

    def counted_kernel(self, base, blocks, want_flags):
        counts["kernel"] += 1
        counts["kernel_touches"] += len(blocks)
        return kernel(self, base, blocks, want_flags)

    monkeypatch.setattr(NumpyBackend, "_kernel", counted_kernel)
    # measured slices go through batching.play_slices, partner slices
    # through the name penalty imported
    slice_loop = batching.play

    def play(*args, **kwargs):
        counts["slices"] += 1
        played, left, total = slice_loop(*args, **kwargs)
        counts["played"] += played
        return played, left, total

    monkeypatch.setattr(batching, "play", play)
    monkeypatch.setattr(penalty_module, "play", play)
    exp = PenaltyExperiment(scale=16, backend="numpy", seed=0)
    n_touches = exp._touch_count(MVA, 0.1)
    stream = exp._measured_stream(MVA, 0.1, n_touches)
    run = exp._run_regime(MVA, 0.1, "multiprog", MATRIX, n_touches, stream)
    assert run.n_switches >= 30
    assert counts["slices"] >= 2 * run.n_switches
    assert counts["engine"] <= 3 * counts["slices"]
    assert counts["kernel"] <= 1.1 * counts["slices"]
    assert counts["kernel_touches"] <= 1.3 * counts["played"]
