"""Pluggable cache-state backends for the set-associative simulator.

The simulator's hot path — mapping a chunk of block indices to sets,
updating per-set LRU state, and counting hits — is isolated behind the
:class:`CacheBackend` protocol so that independently implemented engines
can execute the same reference stream:

* ``scalar`` (:mod:`repro.machine.backends.scalar`) — the original
  per-touch Python loops.  This backend is the **executable reference
  specification**: its behaviour *defines* what every other backend
  must reproduce exactly (hits per chunk, final tag state, query
  results).  It has no third-party dependencies and always works.
* ``numpy`` (:mod:`repro.machine.backends.numpy_backend`) — a columnar
  engine that processes a whole chunk of blocks as arrays (vectorized
  set indexing, run-collapse 2-way shift-register update via masked
  array ops, batched hit counting).  Only available when numpy is
  installed, and only accelerates the ubiquitous 2-way power-of-two
  geometry; other geometries silently fall back to the scalar engine
  (the selection is per-cache and :attr:`CacheBackend.name` reports
  what actually runs).

Selection is **explicit name > numpy when it imports > scalar**:
callers pass an explicit name down through
:class:`~repro.machine.cache.SetAssociativeCache` /
:class:`~repro.machine.processor.Processor` / the measurement drivers
(the ``--backend`` flag, a sweep's ``backend`` field), and
:func:`resolve_backend_name` picks the faster engine the platform has
when no name is given.  The two engines give identical results, so the
choice changes speed only.  numpy is probed when the first cache or
generator is built, never at import.

Backends never see owner keys: the cache interns owners to small ids
and hands backends integer tags ``(owner_id << 40) | block`` via the
precomputed ``base = owner_id << 40``.  Block indices must therefore
lie in ``[0, 2**40)``; every backend validates the whole chunk up front
and raises :class:`ValueError` before mutating any state.

``tests/machine/test_backends.py`` holds the differential harness that
drives both backends over random geometries, owner churn, and
chunkings, asserting exact agreement.
"""

from __future__ import annotations

import typing

from repro.machine.params import MachineSpec

#: Bits reserved for the block index inside an integer line tag.
OWNER_SHIFT = 40
#: Largest representable block index (inclusive): 2**40 - 1.
BLOCK_MASK = (1 << OWNER_SHIFT) - 1
#: Sentinel for an invalid / empty way.
EMPTY = -1

#: Recognized backend names.
BACKEND_NAMES = ("scalar", "numpy")


class CacheBackend(typing.Protocol):
    """State-owning engine behind :class:`~repro.machine.cache.SetAssociativeCache`.

    A backend owns the per-set LRU state; the cache keeps everything
    else (owner interning, stats, the lazy owner index, tracing).  Tags
    are integers ``base + block`` with ``base = owner_id << 40``.
    """

    #: Which engine this is ("scalar" or "numpy") — after any fallback.
    name: str
    #: Most touches :func:`repro.machine.batching.play` classifies in one
    #: speculative window; 0 means no window: the slice loop plays each
    #: safe chunk with one :meth:`access_batch` call, and the engine need
    #: not provide :meth:`access_flags`.  With a window, the slice loop
    #: classifies it with :meth:`access_flags` (no state change) and
    #: commits the touches it plays with :meth:`access_batch` of the
    #: window, or of a prefix of it, next.
    max_window: int

    def access_batch(self, base: int, blocks: typing.Sequence[int]) -> int:
        """Reference every block in order for the owner at ``base``.

        Validates the whole chunk (each block in ``[0, 2**40)``) before
        touching state, raising :class:`ValueError` otherwise.  Returns
        the number of hits.
        """

    def access_flags(
        self, base: int, blocks: typing.Sequence[int]
    ) -> typing.Tuple[int, typing.Sequence[bool]]:
        """Each touch's hit flag if ``blocks`` were referenced now
        (engines with a speculative window only).

        Same validation as :meth:`access_batch`, but the tag state is
        left as it was; returns ``(hits, flags)``.
        """

    def contains(self, base: int, block: int) -> bool:
        """True if the tag ``base + block`` is resident (LRU state untouched)."""

    def resident_lines(self) -> int:
        """Total number of valid lines."""

    def set_occupancy(self, index: int) -> int:
        """Number of valid lines in set ``index`` (bounds checked by caller)."""

    def clear(self) -> None:
        """Invalidate every line."""

    def resident_tags(self) -> typing.Iterator[int]:
        """Yield every resident tag (order unspecified)."""

    def evict_tags(self, base: int, tags: typing.Iterable[int]) -> None:
        """Invalidate exactly ``tags`` (all owned by the owner at ``base``)."""

    def snapshot(self) -> object:
        """Canonical state representation for differential tests."""


def numpy_available() -> bool:
    """True when the numpy backend's dependency can be imported."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_backend_name(explicit: typing.Optional[str] = None) -> str:
    """Apply the selection precedence: explicit > numpy if it imports > scalar.

    Raises:
        ValueError: for an explicit name not in :data:`BACKEND_NAMES`.
    """
    if explicit is None:
        return "numpy" if numpy_available() else "scalar"
    name = explicit.strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown cache backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def make_backend(
    name: typing.Optional[str], spec: MachineSpec
) -> "CacheBackend":
    """Build the backend for ``spec`` after resolving ``name``.

    The numpy engine covers only 2-way power-of-two geometries; asking
    for ``numpy`` on any other geometry returns the scalar reference
    engine instead (check the instance's ``name`` to see what ran).
    Asking for ``numpy`` without numpy installed raises — an explicit
    request should never silently degrade.
    """
    name = resolve_backend_name(name)
    if name == "numpy":
        if not numpy_available():
            raise RuntimeError(
                "cache backend 'numpy' requested but numpy is not installed"
            )
        n_sets = spec.cache_sets
        if spec.associativity == 2 and n_sets & (n_sets - 1) == 0:
            from repro.machine.backends.numpy_backend import NumpyBackend

            return NumpyBackend(n_sets)
    from repro.machine.backends.scalar import ScalarBackend

    return ScalarBackend(spec)
