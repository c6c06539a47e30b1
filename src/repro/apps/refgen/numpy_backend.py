"""Vectorized reference-stream engine: parse the raw MT19937 word stream.

The scalar specification draws from a ``random.Random`` one touch at a
time: two words for the reuse deviate (``random()``), then a
rejection-sampled ``_randbelow`` run (one word per attempt) for a
hot-set pick or a uniform cold pick.  Because every draw's word count
is decidable from the raw words themselves, the whole stream can be
produced the other way around — mirror the generator's Mersenne
Twister into ``numpy.random.RandomState``, pull the *tempered word
stream* in bulk, and parse it into touches with array passes:

1. **Statics** — per word position ``p``, decide vectorized whether a
   touch's ``random()`` starting at ``p`` is a cold pick (exact 53-bit
   integer compare, done in two 32-bit halves), and whether a
   ``_randbelow`` attempt at ``p`` is accepted (one 32-bit compare
   against the precomputed acceptance threshold).
2. **The successor function** ``F[p]`` — where the *next* touch's
   deviate starts if the current one starts at ``p``.  Hot touches
   skip the rejected attempt run after ``p+2`` (a windowed-minimum
   sweep with a sparse straggler walk); sequential cold touches
   consume no extra words; uniform cold picks skip their own
   rejection run (vectorized 8-deep probe, or a dense accept-position
   table when cold picks dominate).
3. **The orbit** — the touch positions are ``p0, F[p0], F[F[p0]], …``,
   an inherently serial recurrence.  It is cracked speculatively:
   chains started every ``WBLK`` words all walk ``F`` in lockstep
   (each step one vectorized gather), and because consecutive chains
   coalesce — any shared position makes them identical forever — each
   chain's true segment is the slice from its start until it first
   lands on its successor chain's stamped positions.  Stamps are
   epoch-coded so no per-call clearing is needed; a scalar rescue walk
   bridges the rare chain that never merges inside the window.
4. **Values** — with touch positions in hand, hot indices, cold
   blocks, and the ring-buffer evolution are all batch gathers: the
   hot set only changes at cold picks, so the ring's whole history is
   a growing array ``hist`` and touch ``t`` reads
   ``hist[appends_before(t) + draw(t)]``.

The engine is exact: for any chunking it emits the same blocks, leaves
the same hot-set ring, and — via :meth:`_VecState.resync`, which
untempers a mirrored output block back into MT19937 key words — puts
the Python ``random.Random`` into the state the scalar loop would have
left.  Paths the parse does not cover (ring not yet full, phased
specs, chunks under :data:`MIN_VEC`) run the scalar specification,
after flushing engine state; an unparseable stream demotes the engine
to the scalar loop permanently for that generator (never an error).
The chunked Section 4 drivers read every stream through
:class:`~repro.apps.reference.BlockReader` in runs far above
:data:`MIN_VEC`, so the small-chunk fallback serves only direct small
callers (``next_block``); for the drivers, the scalar loop runs only
until the ring first fills.

The engine takes its generator as a call argument and never stores it
(see :class:`repro.apps.refgen.GeneratorBackend`).

Tuning notes (measured on the 100k-touch benchmark stream): sync-block
size ``WBLK_FAST=192`` wins while rejected ``_randbelow`` attempts are
dense, because chains can only coalesce where a reject breaks the
fixed words-per-touch stride; below :data:`RDENSE` rejects per word,
neighbouring chains phase-lock (``F[p] ~ p + const``) and merges
become so rare that the safe ``WBLK_SAFE=96`` blocks (with a shorter
stitch window) are required for convergence.  ``_segment`` demotes
from fast to safe blocks on the first parse failure before assuming
word-stream exhaustion.
"""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.apps.refgen.scalar import next_blocks_spec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.reference import ReferenceGenerator

#: 2**53: random() is (a << 26 | b) / 2**53 with a, b the tempered
#: word's top 27 and 26 bits.
TWO53 = 9007199254740992.0
#: Touches per internal parse segment (bounds scratch memory; ~3.3
#: words per touch on the benchmark stream keeps arrays L3-resident).
SEG_MAX = 65536
#: Below this many touches the fixed array-pass overhead loses to the
#: scalar loop; such calls flush and fall back (the chunked drivers
#: never make them: they read ahead through ``BlockReader``).
MIN_VEC = 512
#: Speculative sync-block size when rejects are dense (chains merge fast).
WBLK_FAST = 192
#: Conservative block size: chains coalesce only at rejected attempts,
#: and a low reject density phase-locks neighbouring walks.
WBLK_SAFE = 96
#: Reject-density threshold (rejected words per word) for WBLK_FAST.
RDENSE = 0.08
#: Chain steps stamped for the stitch (visibility window for successors).
JSTAMP = 28

U32 = np.uint32
I32 = np.int32


def _untemper(words: np.ndarray) -> np.ndarray:
    """Invert MT19937's output tempering on an array of 32-bit words."""
    y = words.astype(U32, copy=True)
    y ^= y >> U32(18)
    y ^= (y << U32(15)) & U32(0xEFC60000)
    x = y.copy()
    for _ in range(4):
        x = y ^ ((x << U32(7)) & U32(0x9D2C5680))
    y = x
    x = y.copy()
    for _ in range(2):
        x = y ^ (x >> U32(11))
    return x


def _params(spec) -> tuple:
    """Constant per-spec parse parameters.

    Returns ``(seq, data_blocks, k_hot, t_hot, k_cold, wpt, var,
    reject_density)`` where ``wpt``/``var`` are the mean and variance
    of words consumed per touch (2 for the deviate plus geometric
    rejection runs) and ``reject_density`` is the expected fraction of
    words that are rejected ``_randbelow`` attempts — the coalescence
    opportunities the speculative chains depend on.
    """
    cap = spec.reuse_window
    p = spec.p_reuse
    seq = spec.cold_pattern == "sequential"
    db = spec.data_blocks
    k_hot = cap.bit_length()
    t_hot = U32(cap << (32 - k_hot)) if k_hot < 32 else U32(cap)
    k_cold = db.bit_length()
    acc_hot = cap / (1 << k_hot)
    acc_cold = db / (1 << k_cold)
    wpt = 2.0 + p / acc_hot + (0.0 if seq else (1.0 - p) / acc_cold)
    var = p * (1 - acc_hot) / acc_hot ** 2
    rej = p * (1.0 / acc_hot - 1.0)
    if not seq:
        var += (1 - p) * (1 - acc_cold) / acc_cold ** 2
        rej += (1 - p) * (1.0 / acc_cold - 1.0)
    return seq, db, k_hot, t_hot, k_cold, wpt, var, rej / wpt


class _VecState:
    """Mirrored rng + word store + scratch buffers for one generator.

    While ``valid``, the engine's mirror of the Mersenne Twister and
    the normalized ring history ``hist`` are authoritative and the
    generator's Python-visible state (``_recent_buf``, the rng object)
    lags behind; :meth:`flush` materializes it back.
    """

    def __init__(self, spec) -> None:
        self.rs = np.random.RandomState(0)  # reused; state always overwritten
        self.valid = False          # mirror + hist arrays authoritative?
        self.wstore = np.empty(0, dtype=U32)  # persistent extraction store
        self.wlen = 0               # valid words in wstore
        self.woff = 0               # consumed offset into wstore
        self.store_c0 = 0           # consumed-words value at wstore[0]
        self.pos0 = 0               # python MT position at mirror time
        self.key0: typing.Optional[tuple] = None  # python key at mirror time
        self.gauss0: typing.Optional[float] = None
        self.ver0 = 3
        self.consumed = 0           # words consumed since mirror
        self.dirty = False          # python rng state lags the mirror
        self.hist: typing.Optional[np.ndarray] = None  # ring history (>= cap)
        self.params = _params(spec)
        self.hdtype = np.int64 if spec.data_blocks > 2 ** 31 - 1 else I32
        self.scratch: typing.Dict[str, typing.Any] = {}
        self.epoch = 0

    # -- scratch -------------------------------------------------------
    def buf(self, key: str, size: int, dtype) -> np.ndarray:
        """A reusable scratch array of at least ``size`` elements."""
        b = self.scratch.get(key)
        if b is None or b.shape[0] < size:
            b = np.empty(int(size * 1.25) + 16, dtype=dtype)
            self.scratch[key] = b
        return b

    # -- mirror lifecycle ---------------------------------------------
    def attach(self, gen: "ReferenceGenerator") -> None:
        """Mirror ``gen``'s rng and ring into engine state."""
        ver, key, gauss = gen._rng.getstate()
        self.ver0, self.key0, self.gauss0 = ver, key, gauss
        self.pos0 = key[-1]
        self.rs.set_state(
            ("MT19937", np.array(key[:-1], dtype=U32), self.pos0, 0, 0.0)
        )
        self.consumed = 0
        self.wlen = 0
        self.woff = 0
        self.store_c0 = 0
        self.dirty = False
        # Normalized ring history: oldest..newest, start folded away.
        start = gen._recent_start
        buf = gen._recent_buf
        self.hist = np.array(buf[start:] + buf[:start], dtype=self.hdtype)
        self.valid = True

    def ensure_words(self, need: int) -> np.ndarray:
        """A contiguous view of at least ``need`` unconsumed words.

        Extraction is block-aligned to MT19937's 624-word state so the
        store always contains whole output blocks — :meth:`resync`
        untempers one of them to rebuild the Python key.
        """
        have = self.wlen - self.woff
        if have >= need:
            return self.wstore[self.woff:self.wlen]
        # Compact the store's front, but never drop past the start of
        # the 624-word block holding the current position: resync must
        # untemper that whole block to rebuild the Python key, and the
        # position only moves forward, so keeping it suffices forever.
        if self.woff:
            v1 = self.pos0 + self.store_c0 + self.woff
            b_keep = (v1 - 1) // 624 if v1 > 0 else 0
            drop = min(
                self.woff, max(0, b_keep * 624 - self.pos0 - self.store_c0)
            )
            if drop:
                keep = self.wlen - drop
                self.wstore[:keep] = self.wstore[drop:self.wlen]
                self.store_c0 += drop
                self.wlen = keep
                self.woff -= drop
        virt_end = self.pos0 + self.consumed + have
        target = self.pos0 + self.consumed + need
        target = ((target + 623) // 624) * 624  # block-align (virtual index)
        n_new = target - virt_end
        if self.wlen + n_new > self.wstore.shape[0]:
            grown = np.empty(self.wlen + n_new + 1024, dtype=U32)
            grown[:self.wlen] = self.wstore[:self.wlen]
            self.wstore = grown
        # randint over the full 32-bit range returns the tempered MT
        # output words themselves.
        self.wstore[self.wlen:self.wlen + n_new] = self.rs.randint(
            0, 2 ** 32, size=n_new, dtype=U32
        )
        self.wlen += n_new
        return self.wstore[self.woff:self.wlen]

    def advance(self, nwords: int) -> None:
        self.woff += nwords
        self.consumed += nwords
        self.dirty = True

    def resync(self, gen: "ReferenceGenerator") -> None:
        """Write ``gen``'s exact Python rng state for ``consumed`` words."""
        if not self.dirty:
            return
        v = self.pos0 + self.consumed
        b_eff = (v - 1) // 624 if v > 0 else 0
        pos_fin = v - b_eff * 624 if v > 0 else self.pos0
        if b_eff == 0:
            key = self.key0[:-1]
        else:
            lo = b_eff * 624 - self.pos0 - self.store_c0
            block = self.wstore[lo:lo + 624]
            key = tuple(_untemper(block).tolist())
        gen._rng.setstate((self.ver0, tuple(key) + (pos_fin,), self.gauss0))
        self.dirty = False

    def flush(self, gen: "ReferenceGenerator") -> None:
        """Materialize ``gen``'s scalar-visible state (list ring + rng)."""
        if self.valid and self.hist is not None:
            cap = gen.spec.reuse_window
            gen._recent_buf = self.hist[-cap:].tolist()
            gen._recent_start = 0
            gen._recent_len = cap
        self.resync(gen)
        self.valid = False


class NumpyGeneratorBackend:
    """The vectorized engine behind :class:`ReferenceGenerator`."""

    name = "numpy"
    #: Native output is an ``int64`` array (``next_blocks_array``).
    array_native = True

    def __init__(self, spec) -> None:
        self._state = _VecState(spec)
        self._demoted = False  # permanent scalar fallback after a parse failure

    def next_blocks(self, gen: "ReferenceGenerator", n: int) -> typing.List[int]:
        return self._draw(gen, n).tolist()

    def next_blocks_array(self, gen: "ReferenceGenerator", n: int) -> np.ndarray:
        return self._draw(gen, n)

    def _draw(self, gen: "ReferenceGenerator", n: int) -> np.ndarray:
        """``n`` touches of ``gen``, vectorized with internal segmentation."""
        spec = gen.spec
        st = self._state
        out = np.empty(n, dtype=np.int64)
        if self._demoted:
            out[:n] = next_blocks_spec(gen, n)
            return out
        filled = 0
        primed = False
        while filled < n:
            if gen._recent_len < spec.reuse_window:
                # Warmup: scalar until the ring fills (the parse needs
                # the steady-state fixed hot-set length).
                if st.valid:
                    st.flush(gen)
                step = min(n - filled, 256)
                out[filled:filled + step] = next_blocks_spec(gen, step)
                filled += step
                continue
            seg = min(n - filled, SEG_MAX)
            if seg < MIN_VEC:
                # Too short to vectorize: no mirror needed (flush is a
                # no-op unless an earlier draw left one valid).
                st.flush(gen)
                out[filled:n] = next_blocks_spec(gen, n - filled)
                return out
            if not st.valid:
                st.attach(gen)
            if not primed:
                # One extraction covering the whole call; segments then
                # re-extract only on the rare word-estimate overrun.
                wpt, var = st.params[5], st.params[6]
                rem = n - filled
                st.ensure_words(int(rem * wpt + 6.0 * (rem * var) ** 0.5 + 80))
                primed = True
            try:
                _segment(gen, st, out[filled:filled + seg], seg)
            except RuntimeError:
                # Unparseable stream (should not happen for gated specs;
                # kept as a safety net): hand the generator back to the
                # scalar specification for good.
                st.flush(gen)
                self._demoted = True
                out[filled:n] = next_blocks_spec(gen, n - filled)
                return out
            filled += seg
        return out


def _segment(gen, st: _VecState, outseg: np.ndarray, m: int) -> None:
    """Parse ``m`` touches into ``outseg`` and consume their words."""
    seq, db, k_hot, t_hot, k_cold, wpt, var, rdens = st.params
    M = int(m * wpt + 6.0 * (m * var) ** 0.5 + 80)
    wblk = WBLK_FAST if rdens >= RDENSE else WBLK_SAFE
    for _attempt in range(9):
        W = st.ensure_words(M)[:M]
        consumed = _parse(
            gen, st, W, m, outseg, seq, db, k_hot, t_hot, k_cold, wpt, var, wblk
        )
        if consumed is not None:
            break
        if wblk != WBLK_SAFE:
            wblk = WBLK_SAFE  # stitch trouble: demote to the safe sync blocks
        else:
            M = M * 2         # then assume we ran out of extracted words
    else:
        raise RuntimeError("vectorized parse failed to converge")
    st.advance(consumed)


def _parse(gen, st, W, m, outseg, seq, db, k_hot, t_hot, k_cold, wpt, var, wblk):
    """One parse attempt over word window ``W``.

    Returns the number of words consumed, or None when the window ends
    before ``m`` touches (caller extends and retries) or the stitch
    fails to cover the orbit (caller retries with safe sync blocks).
    Generator/engine state is only written on success.
    """
    spec = gen.spec
    cap = spec.reuse_window
    M = W.shape[0]

    idxb = st.buf("idx", M + 4, I32)
    if st.scratch.get("idx_len", 0) < M + 4:
        idxb[:] = np.arange(idxb.shape[0], dtype=I32)
        st.scratch["idx_len"] = idxb.shape[0]

    # --- cold[p]: the deviate at (p, p+1) says "not reuse".  random()
    # is a 53-bit integer over 2**53; compare exactly in two 32-bit
    # halves (float compares would mis-round near the threshold).
    p_scaled = spec.p_reuse * TWO53
    cold = st.buf("cold", M, bool)[:M]
    if p_scaled >= TWO53:
        cold[:M - 1] = False
        cold[M - 1] = True
    else:
        thr = math.ceil(p_scaled) if p_scaled != int(p_scaled) else int(p_scaled)
        hi = thr >> 26
        lo = U32(thr & ((1 << 26) - 1))
        hi5 = U32(hi << 5)
        np.greater_equal(W[:-1], hi5, out=cold[:M - 1])
        band = st.buf("band", M, U32)[:M - 1]
        np.subtract(W[:-1], hi5, out=band)
        eqm = st.buf("eqm", M, bool)[:M - 1]
        np.less(band, U32(32), out=eqm)
        cold[M - 1] = True
        if eqm.any():
            # First words on the threshold boundary: the low half decides.
            sel = np.flatnonzero(eqm)
            cold[sel] = (W[sel + 1] >> U32(6)) >= lo

    # --- F[p] = next deviate start after a touch whose deviate starts
    # at p.  Hot: F[p] = (next hot-accepted word >= p+2) + 1.  Reject
    # density is 1 - acc_hot (can approach 50%), so a dense windowed
    # sweep beats any sparse reject-run fixup.
    acc = st.buf("acc", M, bool)[:M]
    np.less(W, t_hot, out=acc)
    wa = st.buf("wa", M + 16, I32)
    wb = st.buf("wb", M + 16, I32)
    np.subtract(idxb[1:M + 1], I32(M), out=wa[:M])
    np.multiply(wa[:M], acc, out=wa[:M])  # acc ? idx+1-M : 0
    np.add(wa[:M], I32(M), out=wa[:M])    # acc ? idx+1 : M  (the F value itself)
    # 8-wide windowed min by doubling (SIMD beats the serial running
    # min); reject runs longer than 8 are finished off by sparse
    # stride-8 jumps.  The +1 is folded into the blend and the final
    # pass writes straight into F at the p+2 offset, so no separate
    # shift-and-add pass remains.
    wa[M:M + 9] = I32(M)
    np.minimum(wa[:M + 8], wa[1:M + 9], out=wb[:M + 8])
    np.minimum(wb[:M + 6], wb[2:M + 8], out=wa[:M + 6])
    Fb = st.buf("F", M + 8, I32)
    F = Fb[:M + 1]
    np.minimum(wa[2:M + 2], wa[6:M + 6], out=F[:M])  # win8 at p+2
    F[M] = M
    strag = np.flatnonzero(F[:M - 2] == M)
    if strag.size:
        orig = strag
        q = strag + 10
        for _ in range(64):
            if q.size == 0:
                break
            inb = q < M
            qi = q[inb]
            oi = orig[inb]
            if qi.size == 0:
                break
            v = F[qi - 2]  # win8 window starting at qi
            done = v < M
            F[oi[done]] = v[done]
            q = qi[~done] + 8
            orig = oi[~done]
    # Cold deviate-starts follow the cold path instead.
    cpos = np.flatnonzero(cold[:M - 2])
    ncp = cpos.shape[0]
    if seq:
        F[cpos] = cpos + 2
    elif ncp:
        t_cold = U32(db << (32 - k_cold)) if k_cold < 32 else U32(db)
        if ncp * 16 > M:
            # Cold picks dominate: dense accept-position table.
            np.less(W, t_cold, out=acc)
            AC = np.flatnonzero(acc)
            if AC.size:
                j = np.searchsorted(AC, cpos + 2)
                jc = np.minimum(j, AC.size - 1)
                v = AC[jc] + 1
                v[j == AC.size] = M
            else:
                v = np.full(ncp, M, dtype=np.int64)
            F[cpos] = v
        else:
            # Few cold picks: probe 8 words ahead of each, walk stragglers.
            q0 = cpos + 2
            off = np.arange(8)[:, None]
            cand = q0[None, :] + off
            valid = cand < M
            np.minimum(cand, M - 1, out=cand)
            hitm = W.take(cand) < t_cold
            hitm &= valid
            first = np.argmax(hitm, axis=0)
            found = hitm.ravel().take(first * ncp + np.arange(ncp))
            res = q0 + first + 1
            miss = np.flatnonzero(~found)
            for i in miss:
                q = int(q0[i]) + 8
                while q < M and W[q] >= t_cold:
                    q += 1
                res[i] = q + 1 if q < M else M
            F[cpos] = res

    # --- speculative sync-block orbit --------------------------------
    est = m * wpt
    sdw = max(1.0, (m * max(0.1, wpt - 2.0) * 3.0) ** 0.5)
    cov = min(M, int(est + 4.5 * sdw) + wblk)
    K = max(1, (cov + wblk - 1) // wblk)  # ceil: a truncated tail block can
    # cost up to wblk words of orbit coverage, more than the word margin
    sd_n = (wblk * var / (wpt ** 3)) ** 0.5
    S = min(int(wblk / wpt + 4.0 * sd_n) + 14, 63 if wblk == WBLK_SAFE else 127)
    S1 = S + 1
    J = min(JSTAMP, S1)
    # Any step >= the true merge point is a valid coincidence point, so
    # the match window can start at mean - 4 sigma; earlier merges
    # still match later.
    smin = max(0, int(wblk / wpt - 4.0 * sd_n) - 2)
    smin = min(smin, max(0, S - 8))
    nwin = S1 - smin
    C = st.buf("C", S1 * K, I32)[:S1 * K].reshape(S1, K)
    kk = st.buf("kk", K, I32)[:K]
    if st.scratch.get("kk_len", 0) < K:
        kk[:] = np.arange(K, dtype=I32)
        st.scratch["kk_len"] = K
    np.multiply(kk, I32(wblk), out=C[0])
    for s in range(S):
        F.take(C[s], mode="clip", out=C[s + 1])

    # Epoch-coded stamps: each segment writes codes offset by a fresh
    # epoch base, so stale stamps from earlier segments fall outside
    # the [0, J) validity window after subtraction — no per-segment fill.
    stamp_full = st.scratch.get("stamp")
    if stamp_full is None or stamp_full.shape[0] < M + 2:
        stamp_full = np.empty(int((M + 2) * 1.25) + 16, dtype=I32)
        stamp_full.fill(-1)
        st.scratch["stamp"] = stamp_full
        st.epoch = 0
    span = (K + 2) << 6
    if st.epoch + 2 * span > (1 << 30):
        stamp_full.fill(-1)
        st.epoch = 0
    eb = st.epoch
    st.epoch = eb + span
    stamp = stamp_full[:M + 1]
    codes = st.buf("codes", J * K, I32)[:J * K].reshape(K, J)
    if st.scratch.get("codes_key") != (K, J):
        codes[:] = (
            (np.arange(K, dtype=I32)[:, None] << I32(6))
            | np.arange(J, dtype=I32)[None, :]
        )
        kshift = st.buf("kshift", K, I32)[:K]
        kshift[:] = (kk + I32(1)) << I32(6)
        st.scratch["codes_key"] = (K, J)
    kshift = st.buf("kshift", K, I32)[:K]
    codes_eb = st.buf("codes_eb", J * K, I32)[:J * K].reshape(K, J)
    np.add(codes, I32(eb), out=codes_eb)
    kshift_eb = st.buf("kshift_eb", K, I32)[:K]
    np.add(kshift, I32(eb), out=kshift_eb)
    stamp[C[:J].T.ravel()] = codes_eb.ravel()
    stamp[M] = I32(2 ** 31 - 2)  # sentinel position: never a valid code
    rel = st.buf("rel", nwin * K, I32)[:nwin * K].reshape(nwin, K)
    stamp.take(C[smin:], mode="clip", out=rel)
    np.subtract(rel, kshift_eb, out=rel)
    # Matching steps carry rel = j in [0, J) with j increasing along s;
    # every non-match is >= 64 or negative (huge as u32), so the first
    # match is exactly the u32 argmin — no boolean mask pass needed.
    i_k = np.argmin(rel.view(U32), axis=0).astype(I32)
    flat_idx = i_k * K + kk
    sp = rel.ravel().take(flat_idx)
    has = sp.view(U32) < U32(J)
    i_k += I32(smin)

    # Assemble the true orbit from per-chain slot ranges.  Usually a
    # single run (every chain k lands on chain k+1's stamps); if a
    # chain's walk never merges with its successor's (slow-coalescing
    # specs), a scalar rescue walk carries the orbit forward until it
    # hits a later chain.
    Cflat = C.ravel()
    span_codes = (K + 1) << 6
    segments = []
    tcount = 0
    k0, v0 = 0, 0
    while True:
        sub = has[k0:]
        nomatch = np.flatnonzero(~sub)
        term = k0 + int(nomatch[0]) if nomatch.size else K - 1
        nrun = term - k0 + 1
        vvr = np.empty(nrun, dtype=I32)
        vvr[0] = v0
        if nrun > 1:
            vvr[1:] = sp[k0:term]
        iur = i_k[k0:term + 1].copy()
        sent_hits = C[:, term] >= M
        hit_sent = bool(sent_hits.any())
        iur[-1] = int(np.argmax(sent_hits)) if hit_sent else S1
        if np.any(vvr > iur):
            return None
        # Run slots [vvr_r, iur_r) of chains k0..term, extracted by flat
        # index into C (position of slot j of chain k is C[j, k]); the
        # flat indices stay within S1*K < 2**31, so int32 throughout.
        sizes = iur - vvr
        total_r = int(sizes.sum())
        if total_r:
            csz = np.cumsum(sizes, dtype=I32)
            base = vvr * I32(K)
            base += np.arange(k0, term + 1, dtype=I32)
            base -= (csz - sizes) * I32(K)
            flat = np.repeat(base, sizes)
            flat += np.multiply(idxb[:total_r], I32(K))
            segments.append(Cflat.take(flat))
        tcount += total_r
        if tcount >= m + 1:
            break
        if hit_sent:
            return None  # ran out of extracted words: extend and retry
        # Rescue walk from the end of the truth-carrying chain.
        pos = int(C[S, term])
        rpos = []
        limit_code = (term + 1) << 6
        for _ in range(8 * wblk):
            pos = int(F[pos])
            if pos >= M:
                return None
            code = int(stamp[pos]) - eb
            if limit_code <= code < span_codes:
                break
            rpos.append(pos)
        else:
            return None
        k0 = code >> 6
        v0 = code & 63
        if rpos:
            segments.append(np.array(rpos, dtype=I32))
            tcount += len(rpos)
    orbit = segments[0] if len(segments) == 1 else np.concatenate(segments)
    if orbit.shape[0] < m + 1:
        return None
    p_t = orbit[:m]
    p_next = orbit[1:m + 1]
    consumed = int(orbit[m])

    # --- values -------------------------------------------------------
    hdt = st.hdtype
    cold_t = st.buf("cold_t", m, bool)[:m]
    cold.take(p_t, mode="clip", out=cold_t)
    pm1 = st.buf("pm1", m, I32)[:m]
    np.subtract(p_next, I32(1), out=pm1)
    accw = st.buf("accw", m, U32)[:m]
    W.take(pm1, mode="clip", out=accw)
    cold_pos = np.flatnonzero(cold_t)
    n_cold = cold_pos.shape[0]
    hist = st.hist
    last0 = int(hist[-1])
    if seq:
        scan0 = gen._scan
        cvals = (np.asarray(scan0, dtype=hdt) + np.arange(n_cold, dtype=hdt)) % db
        scan_fin = int((scan0 + n_cold) % db)
    else:
        cvals = (accw.take(cold_pos, mode="clip") >> U32(32 - k_cold)).astype(hdt)
        scan_fin = gen._scan
    appf = np.empty(n_cold, dtype=bool)
    if n_cold:
        # A cold block enters the ring only when it differs from the
        # previous appended block (the generator's dedup rule).
        appf[0] = cvals[0] != last0
        np.not_equal(cvals[1:], cvals[:-1], out=appf[1:])
    if n_cold:
        # P[t] = number of appends before touch t: a step function that
        # increments after each appending cold touch — materialized
        # with one repeat over the inter-append gap lengths.
        ecp = cold_pos[appf]
        bounds = np.empty(ecp.shape[0] + 2, dtype=np.intp)
        bounds[0] = 0
        bounds[1:-1] = ecp
        bounds[1:-1] += 1
        bounds[-1] = m
        P = np.repeat(np.arange(ecp.shape[0] + 1, dtype=I32), np.diff(bounds))
    else:
        P = st.buf("P", m, I32)[:m]
        P.fill(0)
    shbuf = st.buf("sh", m, U32)[:m]
    np.right_shift(accw, U32(32 - k_hot), out=shbuf)
    np.add(P, shbuf, out=P, casting="unsafe")
    newhist = np.concatenate([hist[-cap:], cvals[appf]]) if n_cold else hist[-cap:]
    hotv = st.buf("hotv", m, hdt)[:m]
    newhist.take(P, mode="clip", out=hotv)
    outseg[:] = hotv
    outseg[cold_pos] = cvals
    # --- state writeback ---------------------------------------------
    st.hist = newhist
    gen._scan = scan_fin
    return consumed
