"""The differential backend harness: numpy must equal the scalar spec.

The scalar backend is the executable reference specification; every
test here drives it and the vectorized numpy backend over the same
inputs — random geometries, owner churn, arbitrary chunkings — and
asserts *exact* agreement: hits per chunk, final way-by-way tag state,
query results, regime-driver switch counts, and response times.

Also covers backend selection (explicit name > numpy when it imports >
scalar) and the 2**40 block-range validation added alongside the
backend split (a block ≥ 2**40 used to alias silently into another
owner's id bits).
"""

import dataclasses
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import MATRIX, MVA
from repro.apps.reference import BlockReader
import repro.machine.backends as backends
from repro.machine.backends import (
    BLOCK_MASK,
    make_backend,
    numpy_available,
    resolve_backend_name,
)
from repro.machine.batching import play
from repro.machine.cache import SetAssociativeCache
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.machine.processor import Processor
from repro.measure.penalty import PenaltyExperiment

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)


def tiny_spec(sets: int = 8, assoc: int = 2) -> MachineSpec:
    line = 16
    return dataclasses.replace(
        SEQUENT_SYMMETRY, cache_size_bytes=sets * assoc * line, associativity=assoc
    )


class TestSelection:
    @needs_numpy
    def test_default_is_numpy(self):
        assert resolve_backend_name() == "numpy"
        assert SetAssociativeCache(tiny_spec()).backend_name == "numpy"

    def test_default_is_scalar(self, monkeypatch):
        """Without numpy the default is the scalar engine."""
        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        assert resolve_backend_name() == "scalar"
        assert SetAssociativeCache(tiny_spec()).backend_name == "scalar"

    @needs_numpy
    def test_explicit_beats_default(self):
        cache = SetAssociativeCache(tiny_spec(), backend="scalar")
        assert cache.backend_name == "scalar"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend_name("fortran")
        with pytest.raises(ValueError):
            SetAssociativeCache(tiny_spec(), backend="fortran")

    def test_numpy_without_numpy_is_an_error(self, monkeypatch):
        """An explicit request never silently degrades."""
        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        with pytest.raises(RuntimeError, match="numpy"):
            SetAssociativeCache(tiny_spec(), backend="numpy")

    @needs_numpy
    @pytest.mark.parametrize("sets,assoc", [(8, 4), (5, 2), (6, 4)])
    def test_numpy_falls_back_on_unsupported_geometry(self, sets, assoc):
        """The vectorized kernel covers only 2-way power-of-two sets."""
        for backend in ("numpy", None):
            cache = SetAssociativeCache(tiny_spec(sets, assoc), backend=backend)
            assert cache.backend_name == "scalar"

    def test_make_backend_reports_name(self):
        backend = make_backend("scalar", tiny_spec())
        assert backend.name == "scalar"


#: Prints whether numpy is loaded after the CLI and sweep imports and one
#: scheduling run, then again after the first cache is built.
_PROBE = """
import sys
import repro.cli, repro.sweep
from repro.core.policies import DYN_AFF
from repro.measure.runner import run_mix
from repro.measure.workloads import WorkloadMix
run_mix(WorkloadMix(91, {"MVA": 1}), DYN_AFF, seed=0)
print("numpy" in sys.modules)
from repro.machine.cache import SetAssociativeCache
from repro.machine.params import SEQUENT_SYMMETRY
SetAssociativeCache(SEQUENT_SYMMETRY)
print("numpy" in sys.modules)
"""


def test_numpy_probe_is_lazy():
    """Only building a cache probes for numpy: commands that simulate no
    cache start up without importing it."""
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.split() == ["False", str(numpy_available())]


class TestBlockRangeValidation:
    """Satellite regression: packed tags reserve 40 bits for the block."""

    @pytest.fixture(params=["scalar"] + (["numpy"] if numpy_available() else []))
    def cache(self, request):
        return SetAssociativeCache(tiny_spec(), backend=request.param)

    def test_boundary_block_accepted(self, cache):
        assert cache.access("t", BLOCK_MASK) is False
        assert cache.access("t", BLOCK_MASK) is True
        assert cache.contains("t", BLOCK_MASK)

    def test_block_at_2_40_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.access("t", 1 << 40)
        with pytest.raises(ValueError):
            cache.access_batch("t", [0, 1, 1 << 40])

    def test_negative_block_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.access_batch("t", [3, -1])

    def test_rejected_chunk_leaves_state_untouched(self, cache):
        """Validation is whole-chunk and up-front, not mid-loop."""
        cache.access_batch("a", [0, 1, 2])
        before = cache._backend.snapshot()
        with pytest.raises(ValueError):
            cache.access_batch("a", [3, 4, 1 << 40])
        assert cache._backend.snapshot() == before
        assert cache.stats.accesses == 3

    def test_contains_rejects_out_of_range(self, cache):
        """Pre-fix, contains() aliased block 2**40 into owner_id + 1."""
        cache.access("a", 0)
        cache.access("b", 0)  # owner id 1: tag (1 << 40) + 0
        with pytest.raises(ValueError):
            cache.contains("a", 1 << 40)

    def test_dict_fallback_validates_too(self):
        cache = SetAssociativeCache(tiny_spec(5, 4))
        with pytest.raises(ValueError):
            cache.access_batch("t", [1 << 40])


@needs_numpy
class TestDifferentialParity:
    """Scalar vs numpy over random geometries, owner churn, chunkings."""

    def _pair(self, sets):
        spec = tiny_spec(sets)
        return (
            SetAssociativeCache(spec, backend="scalar"),
            SetAssociativeCache(spec, backend="numpy"),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 8, 64, 512]),
        seed=st.integers(0, 10_000),
        n_steps=st.integers(1, 12),
    )
    def test_property_hits_state_and_queries_agree(self, sets, seed, n_steps):
        scalar, vector = self._pair(sets)
        rng = random.Random(seed)
        owners = ["a", "b", "c", "d"]
        for _ in range(n_steps):
            owner = rng.choice(owners)
            blocks = [
                rng.randrange(0, sets * 4) for _ in range(rng.randint(1, 300))
            ]
            assert scalar.access_batch(owner, blocks) == vector.access_batch(
                owner, blocks
            )
            if rng.random() < 0.25:
                victim = rng.choice(owners)
                assert scalar.evict_owner(victim) == vector.evict_owner(victim)
            if rng.random() < 0.1:
                assert scalar.flush() == vector.flush()
        assert scalar._backend.snapshot() == vector._backend.snapshot()
        assert scalar.resident_lines() == vector.resident_lines()
        for owner in owners:
            assert scalar.footprint(owner) == vector.footprint(owner)
            for block in range(min(sets * 4, 64)):
                assert scalar.contains(owner, block) == vector.contains(
                    owner, block
                )
        for index in range(min(sets, 64)):
            assert scalar.set_occupancy(index) == vector.set_occupancy(index)

    @settings(max_examples=30, deadline=None)
    @given(
        blocks=st.lists(st.integers(0, 99), min_size=1, max_size=400),
        data=st.data(),
    )
    def test_property_chunking_invariance(self, blocks, data):
        """Any split of the same stream yields identical hits and state."""
        scalar, vector = self._pair(16)
        i = 0
        while i < len(blocks):
            j = data.draw(st.integers(i + 1, len(blocks)), label="chunk end")
            assert scalar.access_batch("t", blocks[i:j]) == vector.access_batch(
                "t", blocks[i:j]
            )
            i = j
        assert scalar._backend.snapshot() == vector._backend.snapshot()

    def test_owner_id_recycling_keeps_parity(self):
        """Churn far past the gc limit so ids recycle on both backends."""
        spec = tiny_spec(8)
        scalar = SetAssociativeCache(spec, backend="scalar")
        vector = SetAssociativeCache(spec, backend="numpy")
        rng = random.Random(5)
        for step in range(300):
            owner = f"task-{step}"
            blocks = [rng.randrange(0, 32) for _ in range(rng.randint(1, 40))]
            assert scalar.access_batch(owner, blocks) == vector.access_batch(
                owner, blocks
            )
        assert scalar._backend.snapshot() == vector._backend.snapshot()
        assert scalar.owner_lines() == vector.owner_lines()

    def test_big_blocks_do_not_alias_after_narrowing(self):
        """Regression: stale wide tags must never alias under int32 math."""
        scalar, vector = self._pair(8)
        big = [(1 << 30) + 3, BLOCK_MASK, 5, (1 << 30) + 3, BLOCK_MASK, 5]
        assert scalar.access_batch("t", big) == vector.access_batch("t", big)
        # Follow-up small-block chunks would be int32-eligible; the
        # sticky wide flag must keep them exact anyway.
        for _ in range(3):
            small = [3, 11, 3, (1 << 30) + 3 & 0x7, 19]
            assert scalar.access_batch("t", small) == vector.access_batch(
                "t", small
            )
        assert scalar._backend.snapshot() == vector._backend.snapshot()

    def test_stats_and_hit_rate_agree(self):
        scalar, vector = self._pair(8)
        blocks = [(i * 7) % 48 for i in range(5000)]
        scalar.access_batch("t", blocks)
        vector.access_batch("t", blocks)
        assert scalar.stats.hits == vector.stats.hits
        assert scalar.stats.misses == vector.stats.misses
        assert scalar.stats.hit_rate == vector.stats.hit_rate


def _counting_kernel(monkeypatch) -> list:
    """Record the length of every chunk the numpy sorting kernel sees."""
    from repro.machine.backends.numpy_backend import NumpyBackend

    seen = []
    kernel = NumpyBackend._kernel

    def counted(self, base, blocks, want_flags):
        seen.append(len(blocks))
        return kernel(self, base, blocks, want_flags)

    monkeypatch.setattr(NumpyBackend, "_kernel", counted)
    return seen


def _warm_pair(sets: int, rng: random.Random):
    """A numpy cache and its scalar twin, warmed alike: owner ``a``
    fills part of the cache and ``b`` a few sets, so windows meet sets
    holding this owner's lines, a foreign owner's lines, or none."""
    spec = tiny_spec(sets)
    vector = SetAssociativeCache(spec, backend="numpy")
    scalar = SetAssociativeCache(spec, backend="scalar")
    for owner, span, count in (("a", sets * 4, sets), ("b", sets * 4, sets // 4)):
        blocks = [rng.randrange(0, span) for _ in range(count)]
        vector.access_batch(owner, blocks)
        scalar.access_batch(owner, blocks)
    return vector, scalar


@needs_numpy
class TestSpeculation:
    """Classification and prefix write-back: the engine calls the slice
    loop uses (the numpy engine's window; the scalar engine has none).

    ``hit_flags`` classifies a window without changing the cache; the
    next ``access_batch`` of a prefix of the same blocks writes that
    prefix back from the classified layout.  The scalar engine, touch
    by touch, is the referee.
    """

    @pytest.mark.parametrize("sets", [16, 64])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_steps=st.integers(1, 8))
    def test_property_flags_are_the_touch_by_touch_outcomes(self, sets, seed, n_steps):
        """Each flag is what access() would return, and classifying
        changes neither the tag state nor the counters."""
        rng = random.Random(seed)
        vector, scalar = _warm_pair(sets, rng)
        for _ in range(n_steps):
            owner = rng.choice("abc")
            blocks = [rng.randrange(0, sets * 4) for _ in range(rng.randint(1, 300))]
            before = vector._backend.snapshot()
            accesses = vector.stats.accesses
            hits, flags = vector.hit_flags(owner, blocks)
            assert vector._backend.snapshot() == before
            assert vector.stats.accesses == accesses
            want = [scalar.access(owner, block) for block in blocks]
            assert [bool(f) for f in flags] == want
            assert hits == sum(want)
            # move on to the state after these touches
            vector.access_batch(owner, blocks)
            assert vector._backend.snapshot() == scalar._backend.snapshot()

    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    @pytest.mark.parametrize("sets", [16, 64])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_steps=st.integers(1, 6))
    def test_property_prefix_write_back(self, dtype, sets, seed, n_steps):
        """Classify a window, then commit a random prefix of it: hits
        and state equal the scalar engine's after those touches, and the
        commit runs no second kernel pass."""
        import numpy as np

        rng = random.Random(seed)
        vector, scalar = _warm_pair(sets, rng)
        with pytest.MonkeyPatch.context() as monkeypatch:
            kernel_calls = _counting_kernel(monkeypatch)
            for _ in range(n_steps):
                owner = rng.choice("abc")
                n = rng.randint(1, 300)
                # short spans make runs (repeated blocks) common
                span = rng.choice([2, sets, sets * 4])
                window = np.array(
                    [rng.randrange(0, span) * rng.choice([1, sets]) for _ in range(n)],
                    dtype=dtype,
                )
                vector.hit_flags(owner, window)
                if rng.random() < 0.5:
                    # a query folds the owner view back; the window stays
                    vector.resident_lines()
                p = rng.randint(1, n)
                calls = len(kernel_calls)
                hits = vector.access_batch(owner, window[:p], account=False)
                assert len(kernel_calls) == calls
                assert hits == scalar.access_batch(owner, window[:p].tolist())
                assert vector._backend.snapshot() == scalar._backend.snapshot()

    @pytest.mark.parametrize(
        "between",
        ["other blocks", "longer batch", "other owner", "one touch",
         "reclassify", "caller edits", "flush", "evict"],
    )
    def test_stale_window_falls_back_to_the_kernel(self, monkeypatch, between):
        """Anything but the window's own prefix, next, drops the window:
        the commit then runs the kernel and still agrees with the scalar
        engine."""
        import numpy as np

        rng = random.Random(11)
        vector, scalar = _warm_pair(16, rng)
        kernel_calls = _counting_kernel(monkeypatch)
        window = np.array([rng.randrange(0, 64) for _ in range(200)], dtype=np.int32)
        vector.hit_flags("a", window)
        prefix = window[:120]
        if between == "other blocks":
            other = prefix.copy()
            other[-1] += 1
            assert vector.access_batch("a", other) == scalar.access_batch(
                "a", other.tolist()
            )
        elif between == "longer batch":
            longer = np.concatenate([window, window[:5]])
            assert vector.access_batch("a", longer) == scalar.access_batch(
                "a", longer.tolist()
            )
        elif between == "other owner":
            assert vector.access_batch("b", prefix) == scalar.access_batch(
                "b", prefix.tolist()
            )
        elif between == "one touch":
            assert vector.access("b", 3) == scalar.access("b", 3)
        elif between == "reclassify":
            vector.hit_flags("a", window[::-1].copy())
        elif between == "caller edits":
            window[:120] = (window[:120] + 1) % 64
        elif between == "flush":
            vector.flush()
            scalar.flush()
        else:
            vector.evict_owner("b")
            scalar.evict_owner("b")
        calls = len(kernel_calls)
        assert vector.access_batch("a", prefix) == scalar.access_batch(
            "a", prefix.tolist()
        )
        assert kernel_calls[calls:] == [120]
        assert vector._backend.snapshot() == scalar._backend.snapshot()
        assert vector.stats == scalar.stats
        assert vector.owner_lines() == scalar.owner_lines()

    def test_flags_are_read_only(self):
        """The kept window scores the prefix's hits from its flags, so
        callers get them read-only."""
        cache = SetAssociativeCache(tiny_spec(16), backend="numpy")
        _, flags = cache.hit_flags("a", [1, 2, 1])
        with pytest.raises(ValueError):
            flags[0] = True


@needs_numpy
class TestOneTouch:
    """One-block batches take the numpy engine's plain-Python path; the
    scalar engine is the referee."""

    @pytest.mark.parametrize("sets", [8, 64])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_one_touch_equals_scalar(self, sets, seed):
        rng = random.Random(seed)
        spec = tiny_spec(sets)
        vector = SetAssociativeCache(spec, backend="numpy")
        scalar = SetAssociativeCache(spec, backend="scalar")
        for _ in range(rng.randint(1, 400)):
            roll = rng.random()
            owner = rng.choice("abc")
            if roll < 0.02:
                assert vector.flush() == scalar.flush()
            elif roll < 0.04:
                assert vector.evict_owner(owner) == scalar.evict_owner(owner)
            elif roll < 0.2:
                blocks = [rng.randrange(0, sets * 3) for _ in range(rng.randint(2, 40))]
                assert vector.access_batch(owner, blocks) == scalar.access_batch(
                    owner, blocks
                )
            else:
                # a wide block whose low 32 bits alias a small one: a
                # later batch must not narrow its arithmetic to int32
                block = rng.choice(
                    [rng.randrange(0, sets * 3), (1 << 32) + rng.randrange(0, sets * 3)]
                )
                assert vector.access(owner, block) == scalar.access(owner, block)
        assert vector._backend.snapshot() == scalar._backend.snapshot()
        assert vector.stats == scalar.stats
        assert vector.owner_lines() == scalar.owner_lines()

    @pytest.mark.parametrize("block", [-1, BLOCK_MASK + 1])
    def test_bad_block_raises_before_any_change(self, block):
        cache = SetAssociativeCache(tiny_spec(16), backend="numpy")
        cache.access_batch("a", [1, 2, 3])
        before = cache._backend.snapshot()
        message = f"got range \\[{block}, {block}\\]"
        with pytest.raises(ValueError, match=message):
            cache.access("a", block)
        with pytest.raises(ValueError, match=message):
            cache.access_batch("a", [block, block])
        assert cache._backend.snapshot() == before
        assert cache.stats.accesses == 3


@needs_numpy
class TestDriverParity:
    """Backend choice must not move a single scheduling decision."""

    def test_touch_batch_costs_bit_identical(self):
        spec = tiny_spec(64)
        a = Processor(0, spec, backend="scalar")
        b = Processor(0, spec, backend="numpy")
        rng = random.Random(9)
        for _ in range(50):
            blocks = [rng.randrange(0, 256) for _ in range(rng.randint(1, 500))]
            assert a.touch_batch("t", blocks, 4) == b.touch_batch("t", blocks, 4)
        assert a.busy_time == b.busy_time

    @pytest.mark.parametrize("assoc", [2, 4])
    def test_slice_loop_plays_int32_streams_on_the_scalar_engine(self, assoc):
        """A stored int32 stream can meet the scalar engine (a numpy
        generator with a geometry the numpy cache does not cover): the
        slice loop hands that engine Python ints, so tags of owners past
        id 0 do not overflow int32."""
        import numpy as np

        spec = tiny_spec(16, assoc)
        stream = np.arange(400, dtype=np.int32) % 24
        stored = Processor(0, spec, backend="scalar")
        listed = Processor(0, spec, backend="scalar")
        for owner in ("a", "b", "a"):
            assert play(
                stored, owner, BlockReader.over(stream), 1.0, 4, limit=400
            ) == play(listed, owner, BlockReader.over(stream.tolist()), 1.0, 4, limit=400)
        assert stored.cache._backend.snapshot() == listed.cache._backend.snapshot()
        assert stored.cache.stats == listed.cache.stats

    def test_penalty_regimes_identical(self):
        """Switch counts exactly equal, response times to 1e-12 (here: exact)."""
        results = {}
        for backend in ("scalar", "numpy"):
            exp = PenaltyExperiment(
                scale=64, n_switches_target=10, min_run_s=0.4, backend=backend
            )
            results[backend] = exp.measure(MVA, 0.05, partners=(MATRIX,))
        a, b = results["scalar"], results["numpy"]
        for run_a, run_b in (
            (a.stationary, b.stationary),
            (a.migrating, b.migrating),
            (a.multiprog["MATRIX"], b.multiprog["MATRIX"]),
        ):
            assert run_a.n_switches == run_b.n_switches
            assert run_a.response_time == run_b.response_time
            assert run_a.hit_rate == run_b.hit_rate
        assert a.p_na_s == b.p_na_s
        assert a.p_a_s("MATRIX") == b.p_a_s("MATRIX")
