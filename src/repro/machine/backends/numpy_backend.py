"""The numpy columnar backend: run-collapse vectorized 2-way LRU.

Covers the 2-way power-of-two geometry (the Symmetry and all its
fidelity reductions) and reproduces the scalar reference backend
exactly — same hits per chunk, same final tag state — which the
differential harness in ``tests/machine/test_backends.py`` enforces.

Algorithm (per chunk of ``n`` blocks):

1. **Stable sort by set.**  Pack ``(set_index << pos_bits) | position``
   into one integer key and sort it; the low bits keep the sort stable,
   so each set's accesses appear contiguously *in program order*.
2. **Run collapse.**  Consecutive equal blocks within a set form a run;
   every non-first access of a run is a guaranteed hit (2-way LRU keeps
   the just-touched block in the MRU way), which accounts for ``n - k``
   hits with ``k`` runs in one subtraction.
3. **Run-first hits.**  A run that starts a set's group is scored
   against the pre-chunk state of that set.  A later run's block can
   only equal the set's LRU-way content at that moment (its MRU way
   holds the previous run's block, which differs by construction), and
   that LRU content is the run tag from two positions back — so the
   whole layer is one shifted compare, with a patch at the position
   right after each group head.
   With ``access_flags`` the same run-level outcomes are scattered
   back to one flag per touch in program order.
4. **Write-back.**  Only each set's *last* run determines the post-chunk
   state: MRU is the run's tag, LRU is the tag of the run before it (or
   a survivor of the pre-chunk state when the group has a single run).
   The i-th last run of the chunk pairs with the i-th group head, so
   the head gather is reused.

``access_batch`` runs steps 1-4.  ``access_flags`` is classification
only: steps 1-3, the tag state left as it was, and the sorted layout
kept (:class:`_Window`).  If the next ``access_batch`` on the same owner
is a prefix of that window, compared by value, only step 4 runs, for
the prefix: a set's touches inside the prefix are the first touches of
its group, so its last prefix run is the group's ``c``-th run, with
``c`` the group's runs that start inside the prefix, and the prefix's
hits are its flags' count.  Any other call that changes the state drops
the window, and the kernel runs as usual.  One-block batches skip the
arrays: they fold the owner view back and update the packed tags as the
scalar engine does.

State lives in two ``int64`` arrays of packed tags (``(owner_id << 40)
| block``), exactly mirroring the scalar flat lists.  Two additional
*owner-view* arrays cache the current owner's state in block space so
repeated chunks from the same owner (the common case: thousands of
touches per scheduling stint) skip the tag pack/unpack entirely; the
views are folded back into the tag arrays on owner change or before any
query (:meth:`NumpyBackend.sync`).  Chunk arithmetic runs in ``int32``
when every quantity fits, which roughly halves memory traffic; one
block ever seen at or above ``2**30`` permanently disables that
narrowing so stale wide state tags can never alias after a cast.
"""

from __future__ import annotations

import operator
import typing

import numpy as np

from repro.machine.backends import BLOCK_MASK, EMPTY, OWNER_SHIFT


class NumpyBackend:
    """Vectorized 2-way LRU engine; see the module docstring."""

    name = "numpy"

    def __init__(self, n_sets: int) -> None:
        if n_sets & (n_sets - 1) or n_sets <= 0:
            raise ValueError("NumpyBackend requires a power-of-two set count")
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        self._set_bits = max(1, int(n_sets - 1).bit_length())
        #: authoritative packed-tag state (stale only where a view is live)
        self._mru = np.full(n_sets, EMPTY, dtype=np.int64)
        self._lru = np.full(n_sets, EMPTY, dtype=np.int64)
        #: block-space views of the live owner's lines (-1 = not this owner)
        self._view_base: typing.Optional[int] = None
        self._mru_b = np.empty(n_sets, dtype=np.int64)
        self._lru_b = np.empty(n_sets, dtype=np.int64)
        #: sticky: once any block >= 2**30 is seen, int32 chunk math is
        #: permanently unsafe (a stale wide tag could alias after a cast)
        self._big_blocks = False
        self._ar32 = np.arange(1 << 14, dtype=np.int32)
        self._ar64 = np.arange(1 << 14, dtype=np.int64)
        #: chunk-sized scratch (grown on demand) so the hot path never
        #: allocates: boundary masks and the shifted LB compare layer
        self._heads = np.empty(1 << 14, dtype=bool)
        self._bnd = np.empty(1 << 14, dtype=bool)
        self._lb32 = np.empty(1 << 14, dtype=np.int32)
        self._lb64 = np.empty(1 << 14, dtype=np.int64)
        #: the last classified window, until the state next changes
        self._window: typing.Optional[_Window] = None

    # -- owner views ---------------------------------------------------- #

    def sync(self) -> None:
        """Fold the live owner view back into the int64 tag arrays.

        Invariant: the tag arrays are correct everywhere except entries
        where the live view holds a block (>= 0); there the truth is
        ``view + view_base``.  A view of -1 means the tag entry is
        already the truth (empty, or a foreign owner's line).
        """
        base = self._view_base
        if base is None:
            return
        self._view_base = None
        mb = self._mru_b
        lb = self._lru_b
        m = mb >= 0
        self._mru[m] = mb[m] + base
        m = lb >= 0
        self._lru[m] = lb[m] + base

    def _activate(self, base: int) -> None:
        self.sync()
        oid = base >> OWNER_SHIFT
        self._mru_b = np.where(
            (self._mru >> OWNER_SHIFT) == oid, self._mru & BLOCK_MASK, -1
        )
        self._lru_b = np.where(
            (self._lru >> OWNER_SHIFT) == oid, self._lru & BLOCK_MASK, -1
        )
        self._view_base = base

    # -- hot path ------------------------------------------------------- #

    def access_batch(self, base: int, blocks: typing.Sequence[int]) -> int:
        window = self._window
        if window is not None:
            self._window = None
            if base == window.base:
                hits = self._commit_prefix(window, blocks)
                if hits is not None:
                    return hits
        if len(blocks) == 1:
            return self._access_one(base, blocks[0])
        window = self._kernel(base, np.asarray(blocks), False)
        if window is None:
            return 0
        self._commit_all(window)
        return window.hits

    def access_flags(
        self, base: int, blocks: typing.Sequence[int]
    ) -> typing.Tuple[int, np.ndarray]:
        """Classify ``blocks`` for the owner at ``base``, leaving the state.

        Returns ``(hits, flags)``, one read-only hit flag per touch in
        program order, and keeps the window's sorted layout so that the
        next :meth:`access_batch` of a prefix of ``blocks`` (compared by
        value) writes back without a second sort.
        """
        self._window = None
        # a private copy: the prefix check compares against these values
        window = self._kernel(base, np.array(blocks), True)
        if window is None:
            return 0, np.zeros(0, dtype=bool)
        self._window = window
        return window.hits, window.flags

    def _access_one(self, base: int, block: int) -> int:
        """One touch on the packed tags, as the scalar engine plays it:
        the kernel's validation and state change without its fixed
        array costs."""
        block = operator.index(block)
        if block < 0 or block > BLOCK_MASK:
            raise ValueError(
                f"block indices must be in [0, 2**40); got range [{block}, {block}]"
            )
        if block >= (1 << 30):
            self._big_blocks = True
        self.sync()
        i = block & self._set_mask
        tag = base + block
        m = self._mru.item(i)
        if m == tag:
            return 1
        hit = self._lru.item(i) == tag
        self._lru[i] = m
        self._mru[i] = tag
        return int(hit)

    def _kernel(
        self, base: int, b: np.ndarray, want_flags: bool
    ) -> typing.Optional[_Window]:
        """Sort one chunk by set and score its runs; see the module docstring.

        Reads the state but never writes it (activating the owner view
        aside).  Returns None for an empty chunk.
        """
        n = b.shape[0]
        if n == 0:
            return None
        lo = int(b.min())
        hi = int(b.max())
        if lo < 0 or hi > BLOCK_MASK:
            raise ValueError(
                f"block indices must be in [0, 2**40); got range [{lo}, {hi}]"
            )
        if hi >= (1 << 30):
            self._big_blocks = True
        if base != self._view_base:
            self._activate(base)
        pos_bits = max(1, int(n - 1).bit_length())
        if n > self._ar32.shape[0]:
            self._ar32 = np.arange(n, dtype=np.int32)
            self._ar64 = np.arange(n, dtype=np.int64)
            self._heads = np.empty(n, dtype=bool)
            self._bnd = np.empty(n, dtype=bool)
            self._lb32 = np.empty(n, dtype=np.int32)
            self._lb64 = np.empty(n, dtype=np.int64)
        use32 = not self._big_blocks and self._set_bits + pos_bits <= 31
        if use32:
            bw = b.astype(np.int32) if b.dtype != np.int32 else b
            ar: np.ndarray = self._ar32
        else:
            bw = b.astype(np.int64) if b.dtype != np.int64 else b
            ar = self._ar64
        # stable sort by set via the packed (set, position) key
        key = bw & self._set_mask
        key <<= pos_bits
        key |= ar[:n]
        key.sort()
        order = key & ((1 << pos_bits) - 1)
        # take(mode="clip") skips the bounds check numpy's fancy
        # indexing pays; every index here is constructed in range.
        bs = bw.take(order, mode="clip")
        ss = key >> pos_bits
        heads = self._heads[:n]
        heads[0] = True
        np.not_equal(ss[1:], ss[:-1], out=heads[1:])
        bnd = self._bnd[:n]
        bnd[0] = True
        np.not_equal(bs[1:], bs[:-1], out=bnd[1:])
        bnd |= heads
        if bool(bnd.all()):
            k = n
            bidx = None
            RT = bs  # run tags (block space), one per run
            hpos = np.flatnonzero(heads)
            hkey = ss.take(hpos, mode="clip")
        else:
            bidx = np.flatnonzero(bnd)
            k = bidx.shape[0]
            RT = bs.take(bidx, mode="clip")
            hpos = np.flatnonzero(heads.take(bidx, mode="clip"))
            hkey = ss.take(bidx.take(hpos, mode="clip"), mode="clip")
        h = hpos.shape[0]
        hmb = self._mru_b.take(hkey, mode="clip")  # pre-chunk set state
        hlb = self._lru_b.take(hkey, mode="clip")
        RTh = RT.take(hpos, mode="clip")
        # Run-first hits: non-head runs can only match L_before (their
        # M_before is the previous run's differing tag); head runs are
        # scored against the pre-chunk state separately.
        LB = (self._lb32 if bs.dtype == np.int32 else self._lb64)[:k]
        LB[:2] = -2
        LB[2:] = RT[:-2]
        # hpos is sorted, so "head not at the chunk's final run" prunes
        # at most the last element — a slice, not a boolean mask.
        a_end = h - 1 if int(hpos[-1]) == k - 1 else h
        after = hpos[:a_end] + 1  # run right after each group head
        hmb_a = hmb[:a_end]
        LB[after] = np.where(RTh[:a_end] != hmb_a, hmb_a, hlb[:a_end])
        LB[hpos] = -2
        run_hit = RT == LB
        head_hit = (RTh == hmb) | (RTh == hlb)
        hits = n - k
        hits += int(np.count_nonzero(run_hit))
        hits += int(np.count_nonzero(head_hit))
        flags = None
        if want_flags:
            # Every non-first access of a run hits; a run's first access
            # hits as scored above (heads never match LB's -2 marker).
            run_hit[hpos] = head_hit
            if bidx is None:
                in_set_order = run_hit
            else:
                in_set_order = ~bnd
                in_set_order[bidx] = run_hit
            flags = np.empty(n, dtype=bool)
            flags[order] = in_set_order
            flags.flags.writeable = False
        return _Window(base, b, order, bidx, RT, hpos, hkey, hmb, hlb, hits, flags)

    def _commit_prefix(
        self, window: _Window, blocks: typing.Sequence[int]
    ) -> typing.Optional[int]:
        """Write back the first ``len(blocks)`` touches of a classified
        window, if ``blocks`` equals them; None (nothing written) if not.

        Within a set, the prefix's touches are the first touches of the
        set's group, so the set's last prefix run is the group's
        ``cnt``-th run, with ``cnt`` its runs that start inside the
        prefix.
        """
        b = np.asarray(blocks)
        p = len(b)
        if not 0 < p <= window.blocks.shape[0]:
            return None
        if not np.array_equal(b, window.blocks[:p]):
            return None
        rpos = window.order  # each run's first position in program order
        if window.bidx is not None:
            rpos = rpos.take(window.bidx, mode="clip")
        cnt = np.add.reduceat(rpos < p, window.hpos, dtype=np.intp)
        sel = np.flatnonzero(cnt)  # the groups the prefix touches
        cnt = cnt.take(sel, mode="clip")
        self._commit(
            window,
            window.hpos.take(sel, mode="clip") + cnt - 1,
            cnt == 1,
            window.hkey.take(sel, mode="clip"),
            window.hmb.take(sel, mode="clip"),
            window.hlb.take(sel, mode="clip"),
        )
        return int(np.count_nonzero(window.flags[:p]))

    def _commit_all(self, window: _Window) -> None:
        """Write back the whole window: the i-th last run of a set pairs
        with the i-th group head."""
        hpos = window.hpos
        lpos = np.empty(hpos.shape[0], dtype=hpos.dtype)
        lpos[:-1] = hpos[1:] - 1
        lpos[-1] = window.RT.shape[0] - 1
        self._commit(
            window, lpos, lpos == hpos, window.hkey, window.hmb, window.hlb
        )

    def _commit(
        self,
        window: _Window,
        lpos: np.ndarray,
        lhead: np.ndarray,
        hkey: np.ndarray,
        hmb: np.ndarray,
        hlb: np.ndarray,
    ) -> None:
        """Write-back: each set in ``hkey`` ends on the run ``lpos``.

        MRU is the run's tag.  LRU is the tag of the run before it, or,
        where ``lhead`` (the run is its group's head), a survivor of the
        pre-window state ``hmb``/``hlb``.
        """
        if window.base != self._view_base:
            self._activate(window.base)
        RT = window.RT
        lt = RT.take(lpos, mode="clip")
        cond = lt != hmb
        # lpos - 1 can be -1 only where lhead is true; where() discards
        # that lane, so clipping it to index 0 is harmless.
        la_b = np.where(
            lhead, np.where(cond, hmb, hlb), RT.take(lpos - 1, mode="clip")
        )
        # A single-run group that evicts a foreign/empty MRU into the LRU
        # way: the view cannot carry a foreign tag, so copy the int64
        # truth immediately.  Once every touched set holds this owner's
        # lines (the steady state) the mask is empty and any() bails out
        # before the costlier boolean extraction.
        m = lhead & cond
        m &= hmb < 0
        if m.any():
            fix = hkey.compress(m)
            self._lru[fix] = self._mru[fix]
        self._mru_b[hkey] = lt
        self._lru_b[hkey] = la_b

    # -- queries -------------------------------------------------------- #

    def contains(self, base: int, block: int) -> bool:
        self.sync()
        i = block & self._set_mask
        tag = base + block
        return int(self._mru[i]) == tag or int(self._lru[i]) == tag

    def resident_lines(self) -> int:
        self.sync()
        return int(
            np.count_nonzero(self._mru != EMPTY)
            + np.count_nonzero(self._lru != EMPTY)
        )

    def set_occupancy(self, index: int) -> int:
        self.sync()
        return int(self._mru[index] != EMPTY) + int(self._lru[index] != EMPTY)

    def resident_tags(self) -> typing.Iterator[int]:
        self.sync()
        for tag in self._mru.tolist():
            if tag != EMPTY:
                yield tag
        for tag in self._lru.tolist():
            if tag != EMPTY:
                yield tag

    # -- invalidation --------------------------------------------------- #

    def clear(self) -> None:
        self._window = None
        self._mru.fill(EMPTY)
        self._lru.fill(EMPTY)
        self._view_base = None
        self._big_blocks = False

    def evict_tags(self, base: int, tags: typing.Iterable[int]) -> None:
        self._window = None
        self.sync()
        mru = self._mru
        lru = self._lru
        mask = self._set_mask
        for tag in tags:
            i = tag & mask
            if mru[i] == tag:
                mru[i] = lru[i]
            lru[i] = EMPTY

    # -- speculation ---------------------------------------------------- #

    #: most touches one speculative window classifies (unless the safe
    #: chunk alone is longer)
    max_window = 1 << 16

    # -- test support --------------------------------------------------- #

    def snapshot(self) -> object:
        """Same canonical form as the scalar backend's two-way snapshot."""
        self.sync()
        return ("two-way", self._mru.tolist(), self._lru.tolist())


class _Window(typing.NamedTuple):
    """A classified chunk's sorted layout, kept for its write-back."""

    base: int
    blocks: np.ndarray  # the chunk, in program order
    order: np.ndarray  # program position of each touch, in set order
    bidx: typing.Optional[np.ndarray]  # where each run starts (None: all)
    RT: np.ndarray  # run tags (block space)
    hpos: np.ndarray  # run index of each set group's head
    hkey: np.ndarray  # that group's set
    hmb: np.ndarray  # its pre-window MRU (block space, -1: not ours)
    hlb: np.ndarray  # its pre-window LRU
    hits: int
    flags: typing.Optional[np.ndarray]  # per touch, program order
