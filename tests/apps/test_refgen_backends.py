"""Differential tests: the numpy stream engine against the scalar spec.

The scalar ring-buffer loop (:mod:`repro.apps.refgen.scalar`) is the
executable specification of the reference stream; the numpy engine
(:mod:`repro.apps.refgen.numpy_backend`) re-derives the same stream by
parsing the raw Mersenne Twister word sequence with array passes.  These
tests drive both engines over a zoo of specs, seeds, and chunk patterns
and require *exact* agreement on:

* the emitted block stream, for any chunking;
* the list and array entry points (``next_blocks`` vs ``next_blocks_array``);
* the final generator state after the engine flushes — the Python
  ``random.Random`` state, the hot-set ring, and the sequential scan
  cursor — checked both directly and via scalar continuation.

Plus the selection rules: explicit argument > numpy when it imports >
scalar, a hard error for ``numpy``-without-numpy, and silent scalar
fallback for streams the vectorized parse cannot cover (phased specs).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.refgen import (
    generator_vectorizable,
    make_generator_backend,
    numpy_available,
)
from repro.apps.reference import ReferenceGenerator, ReferenceSpec

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

#: Spec families chosen to hit every parse path: the Table 1 benchmark
#: stream and its sequential (MVA) variant, degenerate windows and block
#: spaces, power-of-two sizes (rejection-free `_randbelow`), p_reuse
#: extremes (all-cold and nearly-all-hot word patterns), near-2**31
#: block spaces (int64 history dtype), and low-reject streams that
#: force the conservative sync-block stitch.
DIFF_SPECS = [
    ReferenceSpec(3500, 0.9875, 20, 1100),
    ReferenceSpec(3500, 0.9875, 20, 1100, cold_pattern="sequential"),
    ReferenceSpec(500, 0.5, 5, 16),
    ReferenceSpec(64, 0.9, 3, 2),
    ReferenceSpec(100, 0.7, 2, 1),
    ReferenceSpec(1000, 0.0, 4, 10),
    ReferenceSpec(2048, 0.999, 8, 512),
    ReferenceSpec(4096, 0.9, 4, 256),
    ReferenceSpec(3000, 0.95, 4, 1024),
    ReferenceSpec(1, 0.3, 2, 1),
    ReferenceSpec(300, 0.8, 2, 40, cold_pattern="sequential"),
    ReferenceSpec(2 ** 31 - 5, 0.9, 4, 100),
    ReferenceSpec(77777, 0.6, 3, 333),
]


def flush(gen):
    """Materialize the numpy engine's mirrored rng and ring onto ``gen``."""
    state = gen._engine._state
    if state.valid:
        state.flush(gen)


def normalized_ring(gen):
    """The hot set oldest..newest, independent of ring rotation."""
    cap = gen.spec.reuse_window
    start, length = gen._recent_start, gen._recent_len
    buf = gen._recent_buf
    return [buf[(start + i) % cap] for i in range(length)]


def random_chunks(rnd, total, hi=2500):
    chunks = []
    covered = 0
    while covered < total:
        c = min(rnd.randint(1, hi), total - covered)
        chunks.append(c)
        covered += c
    return chunks


@requires_numpy
class TestStreamEquality:
    @pytest.mark.parametrize("s", DIFF_SPECS, ids=lambda s: repr(s)[14:54])
    @pytest.mark.parametrize("seed", [1, 7, 12345])
    def test_exact_stream_and_final_state(self, s, seed):
        """Both engines: same blocks, same rng, same ring, same cursor."""
        g_s = ReferenceGenerator(s, random.Random(seed), backend="scalar")
        g_v = ReferenceGenerator(s, random.Random(seed), backend="numpy")
        assert g_v.backend_name == "numpy"
        for c in random_chunks(random.Random(seed * 31 + 1), 6000):
            assert g_s.next_blocks(c) == g_v.next_blocks(c)
        # Array/list parity on the live engine.
        assert g_v.next_blocks_array(700).tolist() == g_s.next_blocks(700)
        # Final state: flush engine-side state, then everything the
        # scalar loop would have left must match exactly.
        flush(g_v)
        assert g_v._rng.getstate() == g_s._rng.getstate()
        assert normalized_ring(g_v) == normalized_ring(g_s)
        assert (g_v._scan, g_v._phase) == (g_s._scan, g_s._phase)
        # And the stream continues identically from the flushed state.
        assert g_v.next_blocks(500) == g_s.next_blocks(500)

    def test_single_touch_calls_match(self):
        """next_block (n=1) stays exact: the scalar-fallback small path."""
        s = DIFF_SPECS[0]
        g_s = ReferenceGenerator(s, random.Random(3), backend="scalar")
        g_v = ReferenceGenerator(s, random.Random(3), backend="numpy")
        g_s.next_blocks(4000)
        g_v.next_blocks(4000)  # vectorized steady state
        assert [g_v.next_block() for _ in range(50)] == [
            g_s.next_block() for _ in range(50)
        ]
        # ... and vectorization resumes exactly afterwards.
        assert g_v.next_blocks(3000) == g_s.next_blocks(3000)

    def test_single_touches_never_mirror_the_rng(self, monkeypatch):
        """Draws under ``MIN_VEC`` run the scalar spec without mirroring
        the rng first: 100 next_block calls on a filled ring attach none."""
        from repro.apps.refgen import numpy_backend

        spec = ReferenceSpec(4096, 0.9, 4, 256)
        gen = ReferenceGenerator(spec, random.Random(3), backend="numpy")
        gen.next_blocks(4000)  # fills the ring and leaves a valid mirror
        assert gen._recent_len == spec.reuse_window
        attaches = []
        attach = numpy_backend._VecState.attach

        def counted(state, g):
            attaches.append(g)
            attach(state, g)

        monkeypatch.setattr(numpy_backend._VecState, "attach", counted)
        for _ in range(100):
            gen.next_block()
        assert attaches == []


@requires_numpy
# The chunking draw is inherently long (it covers 4000 touches one chunk
# at a time), which trips the large-base-example health check.
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.large_base_example],
)
@given(
    data_blocks=st.integers(1, 5000),
    p_reuse=st.floats(0.0, 0.99),
    window=st.integers(1, 128),
    sequential=st.booleans(),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_property_random_specs_agree(
    data_blocks, p_reuse, window, sequential, seed, data
):
    """Random specs x random chunkings: the engines never diverge."""
    s = ReferenceSpec(
        data_blocks=data_blocks,
        p_reuse=p_reuse,
        refs_per_touch=1,
        reuse_window=window,
        cold_pattern="sequential" if sequential else "uniform",
    )
    g_s = ReferenceGenerator(s, random.Random(seed), backend="scalar")
    g_v = ReferenceGenerator(s, random.Random(seed), backend="numpy")
    total = 4000
    produced = 0
    while produced < total:
        n = data.draw(st.integers(1, total - produced), label="chunk")
        assert g_s.next_blocks(n) == g_v.next_blocks(n)
        produced += n
    flush(g_v)
    assert g_v._rng.getstate() == g_s._rng.getstate()
    assert normalized_ring(g_v) == normalized_ring(g_s)


class TestSelection:
    def test_explicit_scalar(self):
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend="scalar")
        assert gen.backend_name == "scalar"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend="fortran")

    @requires_numpy
    def test_default_is_numpy(self):
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0))
        assert gen.backend_name == "numpy"

    def test_default_is_scalar_without_numpy(self, monkeypatch):
        import repro.machine.backends as backends

        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0))
        assert gen.backend_name == "scalar"

    @requires_numpy
    def test_explicit_overrides_default(self):
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend="scalar")
        assert gen.backend_name == "scalar"

    @requires_numpy
    def test_phased_spec_falls_back_to_scalar(self):
        """The vectorized parse covers single-phase streams only."""
        s = ReferenceSpec(
            data_blocks=100, p_reuse=0.5, refs_per_touch=1, reuse_window=8,
            n_phases=4, phase_touches=50,
        )
        for backend in ("numpy", None):
            gen = ReferenceGenerator(s, random.Random(0), backend=backend)
            assert gen.backend_name == "scalar"

    @requires_numpy
    def test_non_stock_rng_falls_back_to_scalar(self):
        class LoggedRandom(random.Random):
            def random(self):  # any drawing override breaks word accounting
                return super().random()

        s = DIFF_SPECS[0]
        assert not generator_vectorizable(s, LoggedRandom(0))
        for backend in ("numpy", None):
            gen = ReferenceGenerator(s, LoggedRandom(0), backend=backend)
            assert gen.backend_name == "scalar"

    def test_numpy_without_numpy_is_an_error(self, monkeypatch):
        import repro.apps.refgen as refgen

        # Build on the scalar engine first, then ask for numpy with
        # availability stubbed out.
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend="scalar")
        monkeypatch.setattr(refgen, "numpy_available", lambda: False)
        with pytest.raises(RuntimeError, match="numpy"):
            make_generator_backend("numpy", gen)


@requires_numpy
class TestArrayPath:
    def test_scalar_engine_array_conversion(self):
        import numpy as np

        g_l = ReferenceGenerator(DIFF_SPECS[0], random.Random(2), backend="scalar")
        g_a = ReferenceGenerator(DIFF_SPECS[0], random.Random(2), backend="scalar")
        arr = g_a.next_blocks_array(1000)
        assert arr.dtype == np.int64
        assert arr.tolist() == g_l.next_blocks(1000)

    def test_numpy_engine_array_is_int64(self):
        import numpy as np

        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(2), backend="numpy")
        assert gen.next_blocks_array(5000).dtype == np.int64

    def test_fused_stream_into_cache_matches_list_path(self):
        """End to end: generator arrays through the cache, both engines."""
        from repro.apps.reference import BlockReader, reduced_machine
        from repro.machine.params import SEQUENT_SYMMETRY
        from repro.machine.processor import Processor

        machine = reduced_machine(SEQUENT_SYMMETRY, 16)
        s = ReferenceSpec(3500, 0.9875, 20, 1100).reduced(16)
        runs = {}
        for backend in ("scalar", "numpy"):
            reader = BlockReader(
                ReferenceGenerator(s, random.Random(11), backend=backend)
            )
            proc = Processor(0, machine, backend=backend)
            for _ in range(12):
                proc.touch_batch("app", reader.take(4096), s.refs_per_touch)
            runs[backend] = (
                proc.cache.stats.hits,
                proc.cache.stats.misses,
                proc.busy_time,
            )
        assert runs["scalar"] == runs["numpy"]


ENGINES = ("scalar", "numpy") if numpy_available() else ("scalar",)


@pytest.mark.parametrize("backend", ENGINES)
class TestNegativeCount:
    """Regression: the numpy engine used to leak numpy's "negative
    dimensions" error while the scalar engine returned ``[]``."""

    def test_next_blocks(self, backend):
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend=backend)
        with pytest.raises(ValueError, match="-3"):
            gen.next_blocks(-3)

    @requires_numpy
    def test_next_blocks_array(self, backend):
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend=backend)
        gen.next_blocks_array(2000)  # past warmup: the vectorized path
        with pytest.raises(ValueError, match="-3"):
            gen.next_blocks_array(-3)

    def test_stream_untouched(self, backend):
        gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend=backend)
        ref = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend=backend)
        with pytest.raises(ValueError):
            gen.next_blocks(-1)
        assert gen.next_blocks(1000) == ref.next_blocks(1000)


@pytest.mark.parametrize("backend", ENGINES)
def test_generator_freed_without_cyclic_gc(backend):
    """No engine stores its generator, so reference counting frees it."""
    import gc
    import weakref

    gen = ReferenceGenerator(DIFF_SPECS[0], random.Random(0), backend=backend)
    assert gen.backend_name == backend
    gen.next_blocks(5000)  # builds the numpy engine's mirror and scratch
    alive = weakref.ref(gen)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del gen
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
