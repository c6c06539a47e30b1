"""The scalar reference backend: per-touch Python loops.

This is the executable specification of the cache's behaviour — the
code every vectorized backend is differentially tested against.  It
carries the two representations the simulator has always had:

* **Flat 2-way fast path** — for 2-way power-of-two geometries each
  set's LRU state is two parallel flat lists; a 2-way LRU set is a
  shift register, so hits and evictions are a few integer compares.
* **Dict-per-set fallback** — any other geometry keeps one dict per
  set whose insertion order is the LRU order (re-insertion moves a tag
  to the MRU end; eviction drops the first key).
"""

from __future__ import annotations

import typing

from repro.machine.backends import BLOCK_MASK, EMPTY
from repro.machine.params import MachineSpec


class ScalarBackend:
    """Reference LRU engine; see the module docstring."""

    name = "scalar"
    #: no speculative window: the slice loop plays each safe chunk
    #: with one access_batch call
    max_window = 0

    def __init__(self, spec: MachineSpec) -> None:
        n_sets = spec.cache_sets
        self.n_sets = n_sets
        self.associativity = spec.associativity
        #: the flat fast path covers 2-way caches with power-of-two sets
        self._two_way = spec.associativity == 2 and n_sets & (n_sets - 1) == 0
        if self._two_way:
            self._set_mask = n_sets - 1
            self._lru: typing.List[int] = [EMPTY] * n_sets
            self._mru: typing.List[int] = [EMPTY] * n_sets
            self._sets: typing.List[typing.Dict[int, None]] = []
        else:
            self._sets = [{} for _ in range(n_sets)]

    # -- hot path ------------------------------------------------------- #

    def access_batch(self, base: int, blocks: typing.Sequence[int]) -> int:
        if len(blocks) == 0:
            return 0
        # Whole-chunk range validation up front: a block >= 2**40 would
        # silently alias into another owner's id bits (and a negative one
        # into a lower owner's), corrupting hit/footprint accounting.
        lo = min(blocks)
        hi = max(blocks)
        if lo < 0 or hi > BLOCK_MASK:
            raise ValueError(
                f"block indices must be in [0, 2**40); got range [{lo}, {hi}]"
            )
        hits = 0
        if self._two_way:
            lru = self._lru
            mru = self._mru
            mask = self._set_mask
            # A 2-way LRU set is a shift register: a fresh tag pushes the
            # MRU down to LRU and drops the old LRU (which is EMPTY while
            # the set is filling, so cold fills need no special case).
            for block in blocks:
                i = block & mask
                tag = base + block
                m = mru[i]
                if m == tag:
                    hits += 1
                    continue
                l = lru[i]
                if l == tag:
                    lru[i] = m
                    mru[i] = tag
                    hits += 1
                    continue
                lru[i] = m
                mru[i] = tag
        else:
            sets = self._sets
            n_sets = self.n_sets
            assoc = self.associativity
            for block in blocks:
                s = sets[block % n_sets]
                tag = base + block
                if tag in s:
                    # Re-insertion moves the tag to the MRU end.
                    del s[tag]
                    s[tag] = None
                    hits += 1
                    continue
                if len(s) >= assoc:
                    del s[next(iter(s))]
                s[tag] = None
        return hits

    # -- queries -------------------------------------------------------- #

    def contains(self, base: int, block: int) -> bool:
        tag = base + block
        if self._two_way:
            i = block & self._set_mask
            return self._mru[i] == tag or self._lru[i] == tag
        return tag in self._sets[block % self.n_sets]

    def resident_lines(self) -> int:
        if self._two_way:
            return (
                2 * self.n_sets
                - self._lru.count(EMPTY)
                - self._mru.count(EMPTY)
            )
        return sum(len(s) for s in self._sets)

    def set_occupancy(self, index: int) -> int:
        if self._two_way:
            return (self._lru[index] != EMPTY) + (self._mru[index] != EMPTY)
        return len(self._sets[index])

    def resident_tags(self) -> typing.Iterator[int]:
        if self._two_way:
            for tag in self._lru:
                if tag != EMPTY:
                    yield tag
            for tag in self._mru:
                if tag != EMPTY:
                    yield tag
        else:
            for cache_set in self._sets:
                yield from cache_set

    # -- invalidation --------------------------------------------------- #

    def clear(self) -> None:
        if self._two_way:
            self._lru = [EMPTY] * self.n_sets
            self._mru = [EMPTY] * self.n_sets
        else:
            for cache_set in self._sets:
                cache_set.clear()

    def evict_tags(self, base: int, tags: typing.Iterable[int]) -> None:
        if self._two_way:
            lru = self._lru
            mru = self._mru
            mask = self._set_mask
            for tag in tags:
                i = tag & mask
                if mru[i] == tag:
                    # Promote the surviving line; the set may also be empty.
                    mru[i] = lru[i]
                lru[i] = EMPTY
        else:
            sets = self._sets
            n_sets = self.n_sets
            for tag in tags:
                del sets[(tag - base) % n_sets][tag]

    # -- test support --------------------------------------------------- #

    def snapshot(self) -> object:
        """Canonical state: exact way contents, LRU order preserved."""
        if self._two_way:
            return ("two-way", list(self._mru), list(self._lru))
        return ("assoc", [list(s) for s in self._sets])
