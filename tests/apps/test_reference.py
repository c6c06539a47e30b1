"""Reference stream generators: locality, scaling, determinism."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.reference import (
    READ_AHEAD,
    BlockReader,
    ReferenceGenerator,
    ReferenceSpec,
    read_stream,
    reduced_machine,
)
from repro.apps.refgen import numpy_available
from repro.machine.footprint import FootprintCurve, LinearFootprintCurve
from repro.machine.params import SEQUENT_SYMMETRY

#: Stream engines to drive the chunking properties through (the numpy
#: engine must be stream-equivalent to the scalar loop for any chunking).
BACKENDS = ("scalar", "numpy") if numpy_available() else ("scalar",)


def spec(**overrides):
    base = dict(data_blocks=1000, p_reuse=0.9, refs_per_touch=10, reuse_window=50)
    base.update(overrides)
    return ReferenceSpec(**base)


class TestValidation:
    def test_rejects_bad_p_reuse(self):
        with pytest.raises(ValueError):
            spec(p_reuse=1.0)
        with pytest.raises(ValueError):
            spec(p_reuse=-0.1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            spec(data_blocks=0)
        with pytest.raises(ValueError):
            spec(refs_per_touch=0)
        with pytest.raises(ValueError):
            spec(reuse_window=0)

    def test_rejects_phases_without_touches(self):
        with pytest.raises(ValueError):
            spec(n_phases=4)

    def test_rejects_more_phases_than_blocks(self):
        # data_blocks // n_phases == 0 would give every phase an empty
        # region (regression: used to build a generator that crashed).
        with pytest.raises(ValueError):
            spec(data_blocks=4, n_phases=8, phase_touches=3)

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            spec(cold_pattern="zigzag")


class TestRates:
    def test_touch_rate(self):
        s = spec(refs_per_touch=10)
        # 10 refs x 0.125 us = 1.25 us per touch -> 800k touches/s
        assert s.touch_rate(SEQUENT_SYMMETRY) == pytest.approx(800_000)

    def test_cold_pick_rate(self):
        s = spec(refs_per_touch=10, p_reuse=0.9)
        assert s.cold_pick_rate(SEQUENT_SYMMETRY) == pytest.approx(80_000)

    def test_uniform_curve_derivation(self):
        s = spec()
        curve = s.footprint_curve(SEQUENT_SYMMETRY)
        assert isinstance(curve, FootprintCurve)
        assert curve.w_max == 1000
        assert curve.tau == pytest.approx(1000 / s.cold_pick_rate(SEQUENT_SYMMETRY))

    def test_sequential_curve_derivation(self):
        s = spec(cold_pattern="sequential")
        curve = s.footprint_curve(SEQUENT_SYMMETRY)
        assert isinstance(curve, LinearFootprintCurve)
        assert curve.hot == 50
        assert curve.cap == 1000


class TestReducedFidelity:
    def test_reduced_preserves_time_quantities(self):
        s = spec()
        r = s.reduced(8)
        assert r.data_blocks == 125
        assert r.refs_per_touch == 80
        # Cold pick rate scales down 8x (fewer, bigger blocks) ...
        assert r.cold_pick_rate(SEQUENT_SYMMETRY) == pytest.approx(
            s.cold_pick_rate(SEQUENT_SYMMETRY) / 8
        )
        # ... so the time to scan the whole data is unchanged.
        machine = reduced_machine(SEQUENT_SYMMETRY, 8)
        full_scan_before = s.data_blocks / s.cold_pick_rate(SEQUENT_SYMMETRY)
        full_scan_after = r.data_blocks / r.cold_pick_rate(machine)
        assert full_scan_after == pytest.approx(full_scan_before, rel=0.01)

    def test_reduced_machine_preserves_fill_time(self):
        machine = reduced_machine(SEQUENT_SYMMETRY, 16)
        assert machine.cache_lines * machine.miss_time_s == pytest.approx(
            SEQUENT_SYMMETRY.cache_lines * SEQUENT_SYMMETRY.miss_time_s
        )
        assert machine.cache_lines == SEQUENT_SYMMETRY.cache_lines // 16

    def test_scale_one_is_identity(self):
        assert reduced_machine(SEQUENT_SYMMETRY, 1) is SEQUENT_SYMMETRY
        assert spec().reduced(1) == spec()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            spec().reduced(0)
        with pytest.raises(ValueError):
            reduced_machine(SEQUENT_SYMMETRY, 0)

    def test_reduced_keeps_phases_within_blocks(self):
        # Aggressive scales must not shrink the address space below the
        # phase count (the reduced spec would fail its own validation).
        s = spec(data_blocks=64, n_phases=16, phase_touches=10)
        r = s.reduced(32)
        assert r.data_blocks >= r.n_phases
        assert r.n_phases == 16


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = ReferenceGenerator(spec(), random.Random(7))
        b = ReferenceGenerator(spec(), random.Random(7))
        assert [a.next_block() for _ in range(100)] == [b.next_block() for _ in range(100)]

    def test_blocks_within_address_space(self):
        gen = ReferenceGenerator(spec(), random.Random(1))
        assert all(0 <= gen.next_block() < 1000 for _ in range(500))

    def test_high_reuse_touches_few_distinct_blocks(self):
        low = ReferenceGenerator(spec(p_reuse=0.0), random.Random(1))
        high = ReferenceGenerator(spec(p_reuse=0.95), random.Random(1))
        low_distinct = len({low.next_block() for _ in range(1000)})
        high_distinct = len({high.next_block() for _ in range(1000)})
        assert high_distinct < low_distinct / 2

    def test_sequential_scan_is_in_order(self):
        gen = ReferenceGenerator(
            spec(p_reuse=0.0, cold_pattern="sequential"), random.Random(1)
        )
        assert [gen.next_block() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_sequential_scan_wraps(self):
        gen = ReferenceGenerator(
            spec(data_blocks=4, p_reuse=0.0, cold_pattern="sequential"),
            random.Random(1),
        )
        assert [gen.next_block() for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_phases_rotate_regions(self):
        gen = ReferenceGenerator(
            spec(data_blocks=100, n_phases=4, phase_touches=10, p_reuse=0.0),
            random.Random(1),
        )
        first = [gen.next_block() for _ in range(10)]
        second = [gen.next_block() for _ in range(10)]
        assert all(0 <= b < 25 for b in first)
        assert all(25 <= b < 50 for b in second)


class _DequeReference:
    """The pre-batching formulation: deque hot set, rng.choice picks.

    Kept as an executable specification — the production ring-buffer
    generator must consume the random stream and emit blocks exactly as
    this one does, one touch at a time.
    """

    def __init__(self, s: ReferenceSpec, rng: random.Random) -> None:
        import collections

        self.spec = s
        self._rng = rng
        self._recent = collections.deque(maxlen=s.reuse_window)
        self._phase = 0
        self._touches_in_phase = 0
        self._region_size = s.data_blocks // s.n_phases
        self._scan = 0

    def next_block(self) -> int:
        s = self.spec
        rng = self._rng
        if s.n_phases > 1:
            self._touches_in_phase += 1
            if self._touches_in_phase > s.phase_touches:
                self._phase = (self._phase + 1) % s.n_phases
                self._touches_in_phase = 0
                self._recent.clear()
                self._scan = self._phase * self._region_size
        if self._recent and rng.random() < s.p_reuse:
            return rng.choice(self._recent)
        if s.cold_pattern == "sequential":
            block = self._scan
            self._scan += 1
            if s.n_phases > 1:
                base = self._phase * self._region_size
                if self._scan >= base + self._region_size:
                    self._scan = base
            elif self._scan >= s.data_blocks:
                self._scan = 0
        elif s.n_phases > 1:
            block = self._phase * self._region_size + rng.randrange(
                max(1, self._region_size)
            )
        else:
            block = rng.randrange(s.data_blocks)
        if not self._recent or self._recent[-1] != block:
            self._recent.append(block)
        return block


GENERATOR_SPECS = [
    spec(),
    spec(p_reuse=0.0),
    spec(reuse_window=1),
    spec(cold_pattern="sequential"),
    spec(data_blocks=64, n_phases=4, phase_touches=37, reuse_window=5),
    spec(data_blocks=7, n_phases=7, phase_touches=3, cold_pattern="sequential"),
]


class TestBatchStreamEquivalence:
    @pytest.mark.parametrize("s", GENERATOR_SPECS, ids=lambda s: repr(s)[:40])
    def test_next_blocks_matches_deque_formulation(self, s):
        """Same seed => byte-identical stream to the old deque generator."""
        for seed in (0, 1, 99):
            ring = ReferenceGenerator(s, random.Random(seed))
            deque_gen = _DequeReference(s, random.Random(seed))
            assert ring.next_blocks(3000) == [
                deque_gen.next_block() for _ in range(3000)
            ]

    def test_next_block_is_next_blocks_of_one(self):
        a = ReferenceGenerator(spec(), random.Random(5))
        b = ReferenceGenerator(spec(), random.Random(5))
        assert [a.next_block() for _ in range(500)] == b.next_blocks(500)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    s=st.sampled_from(GENERATOR_SPECS),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_property_any_chunking_yields_same_stream(backend, s, seed, data):
    """next_blocks is stream-equivalent for arbitrary chunk boundaries.

    Runs once per available engine: the scalar loop against itself (any
    chunking of the specification agrees), and the numpy engine against
    the touch-by-touch scalar loop (the vectorized parse is exact).
    """
    total = 1200
    scalar = ReferenceGenerator(s, random.Random(seed), backend="scalar")
    expected = [scalar.next_block() for _ in range(total)]
    chunked = ReferenceGenerator(s, random.Random(seed), backend=backend)
    got = []
    while len(got) < total:
        n = data.draw(st.integers(1, total - len(got)), label="chunk")
        got.extend(chunked.next_blocks(n))
    assert got == expected
    # And the generators are left in the same state: continuations match.
    assert chunked.next_blocks(200) == [scalar.next_block() for _ in range(200)]


def _as_list(blocks):
    return blocks.tolist() if hasattr(blocks, "tolist") else list(blocks)


def _counting_reader(gen, total=None):
    """A reader over ``gen`` plus a one-slot list of touches it pulled."""
    pulled = [0]
    for name in ("next_blocks", "next_blocks_array"):
        draw = getattr(gen, name)

        def counted(n, draw=draw):
            pulled[0] += n
            return draw(n)

        # An instance attribute shadows the method the reader binds.
        setattr(gen, name, counted)
    return BlockReader(gen, total=total), pulled


#: Request sizes for the reader: empty, below the numpy engine's
#: MIN_VEC, mid-run, and longer than one read-ahead run.
READ_SIZES = st.one_of(
    st.just(0),
    st.integers(1, 600),
    st.integers(601, 9000),
    st.integers(READ_AHEAD - 5, READ_AHEAD + 3000),
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(
    s=st.sampled_from(GENERATOR_SPECS),
    seed=st.integers(0, 1000),
    sizes=st.lists(READ_SIZES, min_size=1, max_size=12),
)
@example(
    s=GENERATOR_SPECS[0],
    seed=1,
    sizes=[0, 5, READ_AHEAD + 1000, 300, 9000, 0, READ_AHEAD, 511, 2],
)
def test_property_reader_matches_direct_draws(backend, s, seed, sizes):
    """Any chunking through a BlockReader hands out the direct draws."""
    direct = ReferenceGenerator(s, random.Random(seed), backend=backend)
    gen = ReferenceGenerator(s, random.Random(seed), backend=backend)
    reader, pulled = _counting_reader(gen)
    taken = 0
    for n in sizes:
        got = reader.take(n)
        want = (
            direct.next_blocks_array(n)
            if gen.backend_name == "numpy"
            else direct.next_blocks(n)
        )
        assert type(got) is type(want)
        assert len(got) == n
        assert _as_list(got) == _as_list(want)
        taken += n
        # The generator runs less than one read-ahead run ahead.
        assert 0 <= pulled[0] - taken < READ_AHEAD


class TestBlockReader:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_total_bounds_the_reads(self, backend):
        gen = ReferenceGenerator(spec(), random.Random(4), backend=backend)
        reader, pulled = _counting_reader(gen, total=READ_AHEAD + 700)
        assert len(reader.take(300)) == 300
        assert pulled[0] == READ_AHEAD
        assert len(reader.take(READ_AHEAD)) == READ_AHEAD
        assert pulled[0] == READ_AHEAD + 700
        with pytest.raises(ValueError, match="only 400 remain"):
            reader.take(401)
        assert len(reader.take(400)) == 400
        assert len(reader.take(0)) == 0
        assert pulled[0] == READ_AHEAD + 700

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_count_rejected(self, backend):
        gen = ReferenceGenerator(spec(), random.Random(4), backend=backend)
        with pytest.raises(ValueError, match="-3"):
            BlockReader(gen).take(-3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_peek_leaves_the_stream_unread(self, backend):
        direct = ReferenceGenerator(spec(), random.Random(4), backend=backend)
        want = _as_list(direct.next_blocks(3 * READ_AHEAD))
        reader = BlockReader(ReferenceGenerator(spec(), random.Random(4), backend=backend))
        assert _as_list(reader.peek(10, 5)) == want[10:15]
        # a window crossing the end of the current run
        assert _as_list(reader.peek(READ_AHEAD - 3, 9)) == want[READ_AHEAD - 3:READ_AHEAD + 6]
        reader.skip(7)
        assert _as_list(reader.take(4)) == want[7:11]
        assert _as_list(reader.peek(READ_AHEAD, 2 * READ_AHEAD - 11)) == want[
            READ_AHEAD + 11:
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_stream_stores_the_draws_compactly(self, backend):
        direct = ReferenceGenerator(spec(), random.Random(4), backend=backend)
        total = 2 * READ_AHEAD + 77
        want = _as_list(direct.next_blocks(total))
        gen = ReferenceGenerator(spec(), random.Random(4), backend=backend)
        stream = read_stream(gen, total)
        assert _as_list(stream) == want
        if gen.backend_name == "numpy":
            assert str(stream.dtype) == "int32"
        else:
            assert stream.typecode == "i"
        reader = BlockReader.over(stream)
        assert _as_list(reader.take(5)) == want[:5]
        assert _as_list(reader.peek(0, total - 5)) == want[5:]
        with pytest.raises(ValueError, match=f"only {total - 5} remain"):
            reader.peek(1, total - 5)


@settings(max_examples=25, deadline=None)
@given(
    p_reuse=st.floats(min_value=0.0, max_value=0.99),
    window=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_distinct_blocks_bounded_by_data(p_reuse, window, seed):
    gen = ReferenceGenerator(
        spec(data_blocks=300, p_reuse=p_reuse, reuse_window=window),
        random.Random(seed),
    )
    blocks = {gen.next_block() for _ in range(2000)}
    assert all(0 <= b < 300 for b in blocks)
    assert len(blocks) <= 300
