"""The scalar reference-stream engine: the executable specification.

This is the ring-buffer touch loop that used to live inside
``ReferenceGenerator.next_blocks``, extracted unchanged.  Its behaviour
— which blocks are emitted, which random draws are consumed, how the
hot-set ring evolves — *defines* the stream; the vectorized engine in
:mod:`repro.apps.refgen.numpy_backend` must reproduce it bit-for-bit
and falls back to this loop wherever it cannot (warmup, phased specs,
tiny chunks).

The loop works directly on the generator's state attributes so that
engines can be swapped (or fallen back to mid-call) without copying
state around.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.reference import ReferenceGenerator


def next_blocks_spec(gen: "ReferenceGenerator", n: int) -> typing.List[int]:
    """The next ``n`` touches of ``gen``'s stream, one touch at a time.

    Stream-equivalent to any chunking of itself: the same random draws
    produce the same blocks and leave the generator in the same state.
    """
    spec = gen.spec
    rng = gen._rng
    random_ = rng.random
    randrange = rng.randrange
    # Random.choice(seq) is seq[rng._randbelow(len(seq))]; drawing the
    # index directly keeps the stream identical to the deque-based
    # formulation while the ring makes the lookup O(1).
    randbelow = getattr(rng, "_randbelow", randrange)
    p_reuse = spec.p_reuse
    n_phases = spec.n_phases
    phase_touches = spec.phase_touches
    sequential = spec.cold_pattern == "sequential"
    data_blocks = spec.data_blocks
    region = gen._region_size
    region_draw = region if region >= 1 else 1
    cap = spec.reuse_window
    buf = gen._recent_buf
    start = gen._recent_start
    length = gen._recent_len
    phase = gen._phase
    tip = gen._touches_in_phase
    scan = gen._scan
    last = buf[(start + length - 1) % cap] if length else -1
    out: typing.List[int] = []
    append_out = out.append
    for _ in range(n):
        if n_phases > 1:
            tip += 1
            if tip > phase_touches:
                # Advance to the next region and drop the hot set
                # (a new computation begins).
                phase = (phase + 1) % n_phases
                tip = 0
                start = 0
                length = 0
                last = -1
                scan = phase * region
        if length and random_() < p_reuse:
            # Hot-set revisit: does not enter the recency window.
            append_out(buf[(start + randbelow(length)) % cap])
            continue
        if sequential:
            block = scan
            scan += 1
            if n_phases > 1:
                base = phase * region
                if scan >= base + region:
                    scan = base
            elif scan >= data_blocks:
                scan = 0
        elif n_phases > 1:
            block = phase * region + randrange(region_draw)
        else:
            block = randrange(data_blocks)
        if block != last:
            if length < cap:
                buf[(start + length) % cap] = block
                length += 1
            else:
                buf[start] = block
                start += 1
                if start == cap:
                    start = 0
            last = block
        append_out(block)
    gen._recent_start = start
    gen._recent_len = length
    gen._phase = phase
    gen._touches_in_phase = tip
    gen._scan = scan
    return out


class ScalarGeneratorBackend:
    """The reference engine: delegates to :func:`next_blocks_spec`."""

    name = "scalar"
    #: Native output is a Python list (``next_blocks``).
    array_native = False

    def next_blocks(self, gen: "ReferenceGenerator", n: int) -> typing.List[int]:
        return next_blocks_spec(gen, n)

    def next_blocks_array(self, gen: "ReferenceGenerator", n: int):
        # Import on demand: the scalar engine itself never needs numpy;
        # only the fused array path (used when a caller mixes a scalar
        # generator with an array-consuming cache) does.
        import numpy

        return numpy.asarray(next_blocks_spec(gen, n), dtype=numpy.int64)
