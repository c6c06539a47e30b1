"""Pluggable engines for the reference-stream generator.

The other half of the Section 4 hot path.  PR 6 put the cache's set/LRU
mechanics behind :mod:`repro.machine.backends`; this package gives the
:class:`~repro.apps.reference.ReferenceGenerator` the same treatment,
because after the cache was vectorized the generator's per-touch Python
loop dominated the full-fidelity experiments:

* ``scalar`` (:mod:`repro.apps.refgen.scalar`) — the ring-buffer touch
  loop, verbatim.  This engine is the **executable reference
  specification**: its stream *defines* what every other engine must
  reproduce bit-for-bit (blocks emitted, random words consumed, final
  hot-set state).  No third-party imports; always works.
* ``numpy`` (:mod:`repro.apps.refgen.numpy_backend`) — a vectorized
  engine that mirrors the generator's Mersenne Twister into numpy,
  draws the raw word stream in bulk, and *parses* it into touches with
  array passes (speculative sync-block chains stitched into the true
  orbit).  Emits the identical stream for any chunking and leaves the
  Python ``random.Random`` in the identical state.

Selection reuses the cache-backend machinery — the same names and the
same precedence (explicit argument > numpy when it imports > scalar) —
so one name picks both halves of the hot path at once.  Mirroring
:func:`repro.machine.backends.make_backend`:
asking for ``numpy`` without numpy installed raises (an explicit request
must never silently degrade), while asking for it on a stream the
vectorized engine cannot reproduce exactly (phased specs, >32-bit block
spaces, a non-MT19937 rng) silently returns the scalar engine — check
``ReferenceGenerator.backend_name`` to see what actually runs.

The numpy engine assumes it *owns* the generator's ``random.Random``:
between calls the Python rng object lags the mirrored stream until the
engine flushes, so drawing from that rng elsewhere while a vectorized
generator is live would fork the stream.  Every driver in this
repository gives each generator a private named stream
(:class:`~repro.engine.rng.RngRegistry`), which satisfies this.

``tests/apps/test_refgen_backends.py`` holds the differential harness
driving both engines over random specs, seeds, and chunkings, asserting
exact stream + final-state agreement.
"""

from __future__ import annotations

import random
import typing

from repro.machine.backends import numpy_available, resolve_backend_name

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.reference import ReferenceGenerator, ReferenceSpec


class GeneratorBackend(typing.Protocol):
    """Stream-producing engine behind :class:`ReferenceGenerator`.

    An engine reads and writes the generator's hot-set/scan/rng state;
    the generator keeps everything else (the spec, the public API).  The
    generator is passed to every call and never stored: an engine held
    by its generator that pointed back would make a reference cycle, and
    every dead generator (with the engine's scratch arrays) would then
    wait for the cyclic garbage collector instead of being freed at once.
    """

    #: Which engine this is ("scalar" or "numpy") — after any fallback.
    name: str
    #: True when the engine's native output is a numpy array, so
    #: :meth:`next_blocks_array` is its copy-free entry point; False when
    #: it builds a list, so :meth:`next_blocks` is.
    array_native: bool

    def next_blocks(self, gen: "ReferenceGenerator", n: int) -> typing.List[int]:
        """The next ``n`` touches of ``gen`` as a Python list of ints."""

    def next_blocks_array(self, gen: "ReferenceGenerator", n: int):
        """The next ``n`` touches of ``gen`` as a numpy ``int64`` array.

        The fused path into ``SetAssociativeCache.access_batch``: the
        vectorized engine returns its native array without building a
        list.  Requires numpy (the scalar engine converts on demand).
        """


def generator_vectorizable(spec: "ReferenceSpec", rng: random.Random) -> bool:
    """True when the numpy engine can reproduce this stream bit-exactly.

    The vectorized parse covers single-phase streams whose hot-set and
    cold-pick rejection sampling consume one 32-bit word per attempt
    (``_randbelow`` with ``n.bit_length() <= 32``), driven by a stock
    CPython ``random.Random`` whose Mersenne Twister state can be
    mirrored.  Anything else falls back to the scalar specification.
    """
    if spec.n_phases != 1:
        return False
    if spec.reuse_window.bit_length() > 32 or spec.data_blocks.bit_length() > 32:
        return False
    if not isinstance(rng, random.Random):
        return False
    cls = type(rng)
    # A subclass overriding any drawing method (random.SystemRandom, a
    # test double) breaks the word-stream accounting; the scalar loop is
    # the only safe engine there.
    return (
        cls.random is random.Random.random
        and cls.getrandbits is random.Random.getrandbits
        and cls.randrange is random.Random.randrange
        and cls.getstate is random.Random.getstate
        and cls.setstate is random.Random.setstate
        and getattr(cls, "_randbelow", None) is getattr(random.Random, "_randbelow")
    )


def make_generator_backend(
    name: typing.Optional[str], gen: "ReferenceGenerator"
) -> "GeneratorBackend":
    """Build the stream engine for ``gen`` after resolving ``name``.

    Mirrors :func:`repro.machine.backends.make_backend`: ``numpy``
    without numpy installed raises :class:`RuntimeError`; ``numpy`` on a
    stream the vectorized engine cannot reproduce exactly returns the
    scalar reference engine instead (check the instance's ``name``).
    """
    name = resolve_backend_name(name)
    if name == "numpy":
        if not numpy_available():
            raise RuntimeError(
                "generator backend 'numpy' requested but numpy is not installed"
            )
        if generator_vectorizable(gen.spec, gen._rng):
            from repro.apps.refgen.numpy_backend import NumpyGeneratorBackend

            return NumpyGeneratorBackend(gen.spec)
    from repro.apps.refgen.scalar import ScalarGeneratorBackend

    return ScalarGeneratorBackend()
