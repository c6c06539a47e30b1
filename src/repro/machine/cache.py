"""A stateful set-associative cache simulator with LRU replacement.

The simulator works at *block* granularity: callers present non-negative
block indices (an application's address space divided into
cache-line-sized blocks) and the cache maps each block to a set via
``block % n_sets`` — the same power-of-two indexing the Symmetry's
physical cache uses.

Lines are tagged by ``(owner, block)``, where the owner identifies the
task whose data occupies the line.  Owner tags let the Section 4
experiments ask "how much of task T's footprint survived the intervening
task?" directly, which on the real machine had to be inferred from timing.

Hot-path design (see docs/architecture.md, "Hot path and fidelity
scaling" and "Cache backends"):

* **Batching** — :meth:`SetAssociativeCache.access_batch` processes a
  whole chunk of block indices per call with a single stats update per
  chunk.  The scalar :meth:`~SetAssociativeCache.access` is a
  one-element wrapper around the same code path, so the two can never
  disagree.  :meth:`~SetAssociativeCache.hit_flags` classifies a
  window of touches without changing the cache, so the Section 4 slice
  loop (:func:`repro.machine.batching.play`) can classify touches
  speculatively and commit only those it plays, with unaccounted
  ``access_batch`` calls; the numpy engine writes such a prefix of the
  window back from the classified layout without sorting it again.
* **Pluggable backends** — the per-set LRU state and the chunk loop
  live behind the :class:`~repro.machine.backends.CacheBackend`
  protocol.  The ``scalar`` backend (per-touch Python loops) is the
  executable reference spec; the optional ``numpy`` backend executes
  the same chunk as columnar array operations.  Selection precedence is
  explicit name > numpy when it imports > scalar; see
  :mod:`repro.machine.backends`.
* **Interned owners** — owner keys (any hashable) are interned to small
  integer ids; a line's tag is the integer ``(owner_id << 40) | block``,
  avoiding per-access tuple allocation.  Block indices must therefore
  be below 2**40; every backend validates whole chunks up front and
  raises ``ValueError``.  Ids are recycled once an owner's last line
  leaves the cache, so long multiprogrammed runs that churn through
  unboundedly many owner keys do not grow the tables.
* **Lazy owner index** — per-owner resident-tag sets are *not*
  maintained inside the access loop.  They are rebuilt on demand (one
  linear pass over the cache) the next time :meth:`footprint`,
  :meth:`owner_lines` or :meth:`evict_owner` is called, and stay valid
  until the next miss.  Queries are rare next to accesses (once per
  scheduling stint vs. thousands of touches), so this moves the
  accounting cost off the critical path entirely while keeping
  ``evict_owner`` proportional to the owner's resident lines rather
  than a scan of every set.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.machine.backends import BLOCK_MASK, OWNER_SHIFT, make_backend
from repro.machine.params import MachineSpec
from repro.obs.records import CacheBatch, CacheFlush


@dataclasses.dataclass
class CacheStats:
    """Running hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when no accesses)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """An N-way set-associative cache with per-set LRU replacement.

    Block indices must be non-negative integers below 2**40 (the tag
    packing reserves the high bits for the interned owner id); accesses
    and queries outside that range raise ``ValueError``.

    Args:
        spec: machine geometry (sets, associativity).
        backend: engine name (``"scalar"`` or ``"numpy"``) or None for
            numpy when it imports, else scalar; :attr:`backend_name`
            reports what actually runs
            (the numpy engine covers only 2-way power-of-two
            geometries and falls back to scalar elsewhere).
    """

    def __init__(
        self, spec: MachineSpec, backend: typing.Optional[str] = None
    ) -> None:
        self.spec = spec
        self.n_sets = spec.cache_sets
        self.associativity = spec.associativity
        self.stats = CacheStats()
        self._backend = make_backend(backend, spec)
        #: the engine actually executing accesses, after any fallback
        self.backend_name = self._backend.name
        # Owner interning: key <-> small id, with id recycling.
        self._owner_ids: typing.Dict[typing.Hashable, int] = {}
        self._owner_keys: typing.Dict[int, typing.Hashable] = {}
        self._free_ids: typing.List[int] = []
        self._next_id = 0
        # Lazy per-owner resident-tag index (valid iff not dirty).
        self._owner_tags: typing.Dict[int, typing.Set[int]] = {}
        self._index_dirty = False
        # Interned owners with zero lines accumulate only between index
        # rebuilds; force a rebuild (which recycles their ids) if the
        # table ever outgrows the cache itself.
        self._owner_gc_limit = max(32, 2 * spec.cache_lines)
        # Observability: batch-granular trace emission.  None (the
        # default) keeps the hot path at one attribute load + branch per
        # access_batch call; records are only constructed when an enabled
        # tracer is attached.
        self._tracer: typing.Optional[object] = None
        self._trace_cpu = 0
        self._trace_clock: typing.Optional[typing.Callable[[], float]] = None

    def attach_tracer(
        self,
        tracer: typing.Optional[object],
        cpu_id: int = 0,
        clock: typing.Optional[typing.Callable[[], float]] = None,
    ) -> None:
        """Emit batch/flush records to ``tracer`` (None detaches).

        ``clock`` supplies record timestamps (e.g. the owning processor's
        accumulated busy time); without one, records carry time 0.0.
        """
        self._tracer = tracer
        self._trace_cpu = cpu_id
        self._trace_clock = clock

    def _trace_now(self) -> float:
        return self._trace_clock() if self._trace_clock is not None else 0.0

    # -- accesses ------------------------------------------------------- #

    def access(self, owner: typing.Hashable, block: int) -> bool:
        """Reference ``block`` on behalf of ``owner``.

        Returns:
            True on a hit, False on a miss (after which the block is
            resident, possibly evicting the set's LRU line).
        """
        return self.access_batch(owner, (block,)) == 1

    def access_batch(
        self,
        owner: typing.Hashable,
        blocks: typing.Sequence[int],
        account: bool = True,
    ) -> int:
        """Reference every block in ``blocks`` in order for ``owner``.

        Semantically identical to calling :meth:`access` once per block;
        counters are updated once per call rather than once per access.
        ``blocks`` may be any sequence of ints (the numpy backend takes
        integer ndarrays without conversion cost).  With ``account=False``
        only the cache state changes: the counters, the owner index and
        the trace are left to :meth:`note_batch`, which the caller must
        then give every touch (the Section 4 slice loop accounts a slice
        chunk by chunk after one call for all of it).

        Returns:
            The number of hits (misses are ``len(blocks) - hits``).

        Raises:
            ValueError: if any block is negative or >= 2**40 (checked
                against the whole chunk before any state changes).
        """
        oid = self._owner_ids.get(owner)
        if oid is None:
            oid = self._intern(owner)
        hits = self._backend.access_batch(oid << OWNER_SHIFT, blocks)
        if account:
            self.note_batch(owner, len(blocks), hits)
        return hits

    def note_batch(self, owner: typing.Hashable, n: int, hits: int) -> None:
        """Account ``n`` touches of ``owner`` with ``hits`` hits.

        Updates the counters and the owner index and emits one
        :class:`~repro.obs.records.CacheBatch` record, exactly as an
        accounted :meth:`access_batch` call of those touches does.
        """
        misses = n - hits
        if misses:
            self._index_dirty = True
        self.stats.hits += hits
        self.stats.misses += misses
        if len(self._owner_ids) > self._owner_gc_limit:
            self._rebuild_index()
        tracer = self._tracer
        if tracer is not None:
            self._emit_batch(owner, n, hits)

    def _emit_batch(self, owner: typing.Hashable, n: int, hits: int) -> None:
        self._tracer.emit(  # type: ignore[union-attr]
            CacheBatch(
                time=self._trace_now(),
                cpu=self._trace_cpu,
                owner=str(owner),
                n=n,
                hits=hits,
            )
        )

    # -- speculation (engines with a window: max_window > 0) ------------ #

    @property
    def max_window(self) -> int:
        """Most touches the engine classifies in one speculative window
        (0: none; see :func:`repro.machine.batching.play`)."""
        return self._backend.max_window

    def hit_flags(
        self, owner: typing.Hashable, blocks: typing.Sequence[int]
    ) -> typing.Tuple[int, typing.Sequence[bool]]:
        """Each block's outcome if ``owner`` referenced ``blocks`` now.

        Returns ``(hits, flags)`` with one hit flag per block, and
        leaves the cache as it was: a caller classifies a window of
        touches and then commits the prefix it plays with
        :meth:`access_batch`.  The engine keeps the window's layout, so
        an :meth:`access_batch` of a prefix of the same blocks, next,
        writes back without classifying them again.
        """
        oid = self._owner_ids.get(owner)
        if oid is None:
            oid = self._intern(owner)
        flags = self._backend.access_flags  # type: ignore[attr-defined]
        return flags(oid << OWNER_SHIFT, blocks)

    # -- queries -------------------------------------------------------- #

    def contains(self, owner: typing.Hashable, block: int) -> bool:
        """True if ``owner``'s ``block`` is resident (does not touch LRU state).

        Raises:
            ValueError: for a block outside [0, 2**40) — such a block
                can never be resident, and before range validation its
                packed tag silently aliased another owner's lines.
        """
        if block < 0 or block > BLOCK_MASK:
            raise ValueError(
                f"block indices must be in [0, 2**40); got {block}"
            )
        oid = self._owner_ids.get(owner)
        if oid is None:
            return False
        return self._backend.contains(oid << OWNER_SHIFT, block)

    def footprint(self, owner: typing.Hashable) -> int:
        """Number of lines currently owned by ``owner``."""
        oid = self._owner_ids.get(owner)
        if oid is None:
            return 0
        if self._index_dirty:
            self._rebuild_index()
        tags = self._owner_tags.get(oid)
        return len(tags) if tags else 0

    def owner_lines(self) -> typing.Dict[typing.Hashable, int]:
        """Resident line count per owner (owners with zero lines omitted)."""
        if self._index_dirty:
            self._rebuild_index()
        keys = self._owner_keys
        return {keys[oid]: len(tags) for oid, tags in self._owner_tags.items()}

    def resident_lines(self) -> int:
        """Total number of valid lines in the cache."""
        return self._backend.resident_lines()

    def set_occupancy(self, index: int) -> int:
        """Number of valid lines in set ``index`` (bounds-checked)."""
        if not 0 <= index < self.n_sets:
            raise IndexError(index)
        return self._backend.set_occupancy(index)

    # -- invalidation --------------------------------------------------- #

    def flush(self) -> int:
        """Invalidate every line; returns how many were dropped.

        This models the Section 4 "migrating" regime, where enough memory
        is referenced sequentially to eject all prior content.
        """
        dropped = self._backend.resident_lines()
        self._backend.clear()
        self._owner_ids.clear()
        self._owner_keys.clear()
        self._free_ids.clear()
        self._next_id = 0
        self._owner_tags = {}
        self._index_dirty = False
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(  # type: ignore[attr-defined]
                CacheFlush(time=self._trace_now(), cpu=self._trace_cpu, lines=dropped)
            )
        return dropped

    def evict_owner(self, owner: typing.Hashable) -> int:
        """Invalidate only ``owner``'s lines; returns how many were dropped.

        Cost is one (amortized) index rebuild plus work proportional to
        the owner's resident lines — not a scan of every set.
        """
        oid = self._owner_ids.get(owner)
        if oid is None:
            return 0
        if self._index_dirty:
            self._rebuild_index()
        tags = self._owner_tags.pop(oid, None)
        if tags is None:
            # The rebuild found no resident lines and released the id.
            return 0
        self._backend.evict_tags(oid << OWNER_SHIFT, tags)
        self._release(oid)
        # Only this owner's entries changed, so the index stays valid.
        return len(tags)

    # -- internals ------------------------------------------------------ #

    def _intern(self, owner: typing.Hashable) -> int:
        if self._free_ids:
            oid = self._free_ids.pop()
        else:
            oid = self._next_id
            self._next_id += 1
        self._owner_ids[owner] = oid
        self._owner_keys[oid] = owner
        return oid

    def _release(self, oid: int) -> None:
        key = self._owner_keys.pop(oid)
        del self._owner_ids[key]
        self._free_ids.append(oid)

    def _rebuild_index(self) -> None:
        """Recompute the per-owner resident-tag sets from the line arrays.

        Owners left with no resident lines are un-interned and their ids
        recycled, which bounds every owner table by the cache capacity.
        (The numpy backend folds its owner views into the tag arrays
        before enumerating them, so recycled ids can never meet a stale
        view.)
        """
        owner_tags: typing.Dict[int, typing.Set[int]] = {
            oid: set() for oid in self._owner_keys
        }
        for tag in self._backend.resident_tags():
            owner_tags[tag >> OWNER_SHIFT].add(tag)
        for oid in [oid for oid, tags in owner_tags.items() if not tags]:
            del owner_tags[oid]
            self._release(oid)
        self._owner_tags = owner_tags
        self._index_dirty = False

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(sets={self.n_sets}, assoc={self.associativity}, "
            f"backend={self.backend_name}, "
            f"resident={self.resident_lines()}/{self.spec.cache_lines})"
        )
