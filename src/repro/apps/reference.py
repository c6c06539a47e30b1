"""Memory reference models for the applications.

The Section 4 penalty experiments drive the stateful cache simulator with
per-application reference streams.  Simulating every reference is
intractable in Python, so the generator works at *touch* granularity: one
touch is ``refs_per_touch`` consecutive references to a single block (the
temporal-locality runs real programs exhibit).  Only the first reference of
a run can miss, so touch granularity preserves miss behaviour exactly for
run-structured traces.

The stream itself is a two-level locality model:

* with probability ``p_reuse`` the next touch revisits a block drawn
  uniformly from the last ``reuse_window`` distinct blocks (the hot set);
* otherwise it picks a block uniformly from the application's
  ``data_blocks``-block address space.

Uniform cold picks give the classic coupon-collector working-set growth
``distinct(t) = D * (1 - exp(-r t / D))`` — the saturating curve behind the
paper's observation that penalties grow with the rescheduling interval Q.
The derived :class:`~repro.machine.footprint.FootprintCurve` (``w_max = D``,
``tau = D / r``) is therefore the *same model*, which is what lets the
scheduling simulations use the analytic form the penalty experiment
validates.
"""

from __future__ import annotations

import array
import dataclasses
import operator
import random
import typing

from repro.apps.refgen import make_generator_backend
from repro.machine.footprint import FootprintCurve, LinearFootprintCurve
from repro.machine.params import MachineSpec


@dataclasses.dataclass(frozen=True)
class ReferenceSpec:
    """Parameters of one application's reference stream."""

    #: size of the touched address space, in cache-line-sized blocks
    data_blocks: int
    #: probability a touch revisits the hot set instead of a cold block
    p_reuse: float
    #: consecutive references represented by one touch
    refs_per_touch: int
    #: number of recent distinct blocks forming the hot set
    reuse_window: int
    #: execution phases: cold picks stay within the current 1/n_phases
    #: region of the address space (1 = uniform over everything)
    n_phases: int = 1
    #: touches per phase before moving to the next region (0 = no rotation)
    phase_touches: int = 0
    #: how cold picks walk the address space: "uniform" random (coupon
    #: collector working-set growth) or "sequential" scan (sharp-knee
    #: linear growth — streaming through input data, tree walks)
    cold_pattern: str = "uniform"

    def __post_init__(self) -> None:
        if self.data_blocks <= 0:
            raise ValueError("data_blocks must be positive")
        if not 0.0 <= self.p_reuse < 1.0:
            raise ValueError("p_reuse must be in [0, 1)")
        if self.refs_per_touch < 1:
            raise ValueError("refs_per_touch must be at least 1")
        if self.reuse_window < 1:
            raise ValueError("reuse_window must be at least 1")
        if self.n_phases < 1:
            raise ValueError("n_phases must be at least 1")
        if self.n_phases > self.data_blocks:
            # Each phase owns a data_blocks // n_phases region; more
            # phases than blocks would make every region empty.
            raise ValueError("n_phases cannot exceed data_blocks")
        if self.n_phases > 1 and self.phase_touches < 1:
            raise ValueError("phased streams need phase_touches >= 1")
        if self.cold_pattern not in ("uniform", "sequential"):
            raise ValueError(f"unknown cold_pattern {self.cold_pattern!r}")

    def touch_rate(self, spec: MachineSpec) -> float:
        """Touches per second when every touch hits."""
        return 1.0 / (self.refs_per_touch * spec.hit_time_s)

    def cold_pick_rate(self, spec: MachineSpec) -> float:
        """Uniform cold picks per second (the working-set growth rate)."""
        return self.touch_rate(spec) * (1.0 - self.p_reuse)

    def footprint_curve(self, spec: MachineSpec) -> typing.Union[FootprintCurve, LinearFootprintCurve]:
        """The analytic working-set growth law this stream follows.

        Uniform cold picks give the coupon-collector exponential; a
        sequential scan gives the sharp-knee linear form (hot set loads
        almost immediately, then the scan adds ``rate`` lines/second).
        """
        rate = self.cold_pick_rate(spec)
        if self.cold_pattern == "sequential":
            return LinearFootprintCurve(
                hot=float(self.reuse_window),
                rate=rate,
                cap=float(self.data_blocks),
            )
        return FootprintCurve(w_max=float(self.data_blocks), tau=self.data_blocks / rate)

    def reduced(self, scale: int) -> "ReferenceSpec":
        """A fidelity-reduced stream for a ``reduced``-scale machine.

        Dividing the address space by ``scale`` while multiplying
        ``refs_per_touch`` by it keeps every *time* quantity (working-set
        build time, reload penalties in seconds) unchanged while cutting
        the number of simulated touches by ``scale``.  Used together with
        :func:`reduced_machine`.
        """
        if scale < 1:
            raise ValueError("scale must be at least 1")
        return ReferenceSpec(
            data_blocks=max(self.n_phases, self.data_blocks // scale),
            p_reuse=self.p_reuse,
            refs_per_touch=self.refs_per_touch * scale,
            reuse_window=max(1, self.reuse_window // scale),
            n_phases=self.n_phases,
            phase_touches=max(1, self.phase_touches // scale) if self.phase_touches else 0,
            cold_pattern=self.cold_pattern,
        )


def reduced_machine(spec: MachineSpec, scale: int) -> MachineSpec:
    """A fidelity-reduced machine matching :meth:`ReferenceSpec.reduced`.

    The cache shrinks by ``scale`` and the miss time grows by ``scale``, so
    the full-cache fill time — and hence every penalty measured in seconds —
    is preserved while the simulator does ``scale`` times less work.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    if scale == 1:
        return spec
    return dataclasses.replace(
        spec,
        name=f"{spec.name} (1/{scale} fidelity)",
        cache_size_bytes=spec.cache_size_bytes // scale,
        miss_time_s=spec.miss_time_s * scale,
    )


class ReferenceGenerator:
    """Stateful generator of block touches for one task.

    The hot set lives in a fixed-size ring buffer rather than a deque:
    picking a uniform member of a deque costs O(reuse_window) per touch
    (deque indexing is linear), while the ring gives an O(1) pick and an
    O(1) bounded append.  The element order and random-number consumption
    match the deque formulation exactly, so streams are unchanged.

    Stream production is delegated to a pluggable engine
    (:mod:`repro.apps.refgen`): the scalar ring-buffer loop is the
    executable specification, and the numpy engine reproduces its stream
    bit-for-bit by parsing the raw Mersenne Twister word stream in bulk.
    ``backend`` selects the engine like the cache backends do (explicit
    argument > numpy when it imports > scalar); requesting ``numpy``
    on a stream the vectorized engine cannot cover (phased specs, a
    non-stock rng) silently falls back — ``backend_name`` reports the
    engine actually running.

    :meth:`next_blocks` is the batch entry point; :meth:`next_blocks_array`
    is the fused path that hands the numpy engine's native ``int64``
    array straight to ``SetAssociativeCache.access_batch`` without
    building a Python list.  The chunked Section 4 drivers read through
    a :class:`BlockReader`, which calls them in long runs.  Both are
    stream-equivalent to calling :meth:`next_block` the same number of
    times, for any chunking (property-tested in
    ``tests/apps/test_reference.py`` and differentially tested across
    engines in ``tests/apps/test_refgen_backends.py``).
    """

    def __init__(
        self,
        spec: ReferenceSpec,
        rng: random.Random,
        backend: typing.Optional[str] = None,
    ) -> None:
        self.spec = spec
        self._rng = rng
        # Ring buffer of the last `reuse_window` appended blocks:
        # logical order oldest..newest is buf[start], buf[start+1], ...
        # (indices mod the window size); `length` counts the filled slots.
        self._recent_buf: typing.List[int] = [0] * spec.reuse_window
        self._recent_start = 0
        self._recent_len = 0
        self._phase = 0
        self._touches_in_phase = 0
        self._region_size = spec.data_blocks // spec.n_phases
        self._scan = 0
        self._engine = make_generator_backend(backend, self)

    @property
    def backend_name(self) -> str:
        """Name of the stream engine in use (after any fallback)."""
        return self._engine.name

    def next_block(self) -> int:
        """The block index of the next touch."""
        return self.next_blocks(1)[0]

    def next_blocks(self, n: int) -> typing.List[int]:
        """The block indices of the next ``n`` touches.

        Stream-equivalent to ``[self.next_block() for _ in range(n)]``:
        the same random draws produce the same blocks and leave the
        generator in the same state, for any chunking of the stream.
        """
        if n < 0:
            raise ValueError(f"touch count must be non-negative, got {n}")
        return self._engine.next_blocks(self, n)

    def next_blocks_array(self, n: int):
        """The next ``n`` touches as a numpy ``int64`` array.

        Same stream as :meth:`next_blocks`, but the numpy engine returns
        its native array directly — the fused generator→cache path.
        Requires numpy regardless of engine (the scalar engine converts).
        """
        if n < 0:
            raise ValueError(f"touch count must be non-negative, got {n}")
        return self._engine.next_blocks_array(self, n)


#: Touches a :class:`BlockReader` pulls from its generator at a time,
#: far above the numpy engine's ``MIN_VEC`` scalar fallback.  Scale-16
#: Table 1 on the numpy engine (2-vCPU host): 8192 peaks at 44.9 MB and
#: ran slower in 4 of 6 pairs (median 4.0 s vs 3.6 s); 16384 peaks at
#: 48.6 MB; 65536 at 68.2 MB, since each engine's scratch grows with it.
READ_AHEAD = 16384


class BlockReader:
    """Any chunking of a generator's stream, pulled in runs of :data:`READ_AHEAD`.

    The chunked Section 4 drivers ask for as many touches as
    ``batch_limit`` allows, which near a slice boundary is a handful.
    Drawn directly, every such request below the numpy engine's
    ``MIN_VEC`` flushes its mirrored rng and the next large one mirrors
    it again.  Every stream is chunking-invariant, so reading ahead and
    slicing hands out exactly the blocks that direct draws would.

    Blocks come in the engine's native form: ``int64`` array views from
    the numpy engine (the fused path into the numpy cache), lists from
    the scalar one.  ``total`` is the stream's known length: the reader
    never pulls past it, and asking for more raises :class:`ValueError`.
    Without it, the generator may run up to one run ahead of the reads.
    :meth:`over` reads a stream stored by :func:`read_stream` instead.
    """

    def __init__(
        self,
        gen: ReferenceGenerator,
        total: typing.Optional[int] = None,
    ) -> None:
        if gen._engine.array_native:
            draw = gen.next_blocks_array
            self._join = _join_arrays
        else:
            draw = gen.next_blocks
            self._join = operator.add
        #: touches the generator may still be asked for (None = unbounded)
        self._unread = total
        self._run = draw(0)
        self._pos = 0
        self._draw = draw

    @classmethod
    def over(cls, stream: typing.Sequence[int]) -> "BlockReader":
        """A reader of ``stream`` itself, from its start; it draws nothing."""
        reader = cls.__new__(cls)
        reader._unread = 0
        reader._run = stream
        reader._pos = 0
        return reader

    def take(self, n: int):
        """The next ``n`` touches of the stream."""
        if n < 0:
            raise ValueError(f"touch count must be non-negative, got {n}")
        blocks = self.peek(0, n)
        self._pos += n
        return blocks

    def peek(self, start: int, n: int):
        """Touches ``start .. start + n`` past the read position, unread."""
        run = self._run
        lo = self._pos + start
        need = lo + n - len(run)
        if need > 0:
            size = max(need, READ_AHEAD)
            if self._unread is not None:
                if need > self._unread:
                    raise ValueError(
                        f"cannot take {start + n} touches: only "
                        f"{len(run) - self._pos + self._unread} remain"
                    )
                size = min(size, self._unread)
                self._unread -= size
            tail = run[self._pos:]
            fresh = self._draw(size)
            run = self._run = self._join(tail, fresh) if len(tail) else fresh
            lo -= self._pos
            self._pos = 0
        return run[lo:lo + n]

    def skip(self, n: int) -> None:
        """Consume ``n`` touches that :meth:`peek` handed out."""
        self._pos += n


def read_stream(gen: ReferenceGenerator, total: int) -> typing.Sequence[int]:
    """The next ``total`` touches of ``gen``, stored compactly for replay.

    Drawn through a :class:`BlockReader` in :data:`READ_AHEAD` runs into
    an ``int32`` numpy array on the numpy engine and an ``array.array``
    on the scalar one: 4 bytes a touch (8 for address spaces past
    ``2**31`` blocks).
    """
    narrow = gen.spec.data_blocks <= 1 << 31
    reader = BlockReader(gen, total=total)
    if gen._engine.array_native:
        import numpy

        stream = numpy.empty(total, dtype=numpy.int32 if narrow else numpy.int64)
        for done in range(0, total, READ_AHEAD):
            run = reader.take(min(READ_AHEAD, total - done))
            stream[done:done + len(run)] = run
        return stream
    stored = array.array("i" if narrow else "q")
    for done in range(0, total, READ_AHEAD):
        stored.extend(reader.take(min(READ_AHEAD, total - done)))
    return stored


def _join_arrays(head, tail):
    """Concatenate two block arrays (the numpy-engine counterpart of ``+``)."""
    import numpy

    return numpy.concatenate((head, tail))
