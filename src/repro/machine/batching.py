"""Chunk sizing for batched touch streams, and the one Section 4 slice loop.

The Section 4 regime drivers used to call ``Processor.touch`` once per
touch so they could check for a rescheduling point after every access.
The batched drivers instead process touches in chunks, which is only
sound if no rescheduling point can fall *inside* a chunk.

:func:`batch_limit` computes the largest safe chunk: given the remaining
slice budget and the worst-case (all-miss) cost of a single touch, it
returns the greatest ``n`` such that the first ``n - 1`` touches cannot
exhaust the budget — so the budget can only be crossed by the chunk's
final touch, exactly where a touch-by-touch loop would have stopped.
The chunked drivers therefore visit the *identical* sequence of
rescheduling points as the scalar loops they replaced — identical in
exact arithmetic, that is.  Under floating point the aggregate
multiply-add cost of a chunk can round differently from per-touch
accumulation, so a slice whose budget lands exactly on a touch boundary
may resolve one touch later; the shift never compounds because every
slice restarts from a fresh budget
(``tests/machine/test_batch_equivalence.py`` pins down both halves of
this contract, and ``tests/measure/test_penalty.py`` checks the
measured penalties end to end).

:func:`play` is the one slice loop every driver shares (the penalty
regimes, the intervening-task runs and the cache oracle's stints).  It
no longer plays those chunks one cache call at a time.  A slice's chunk
sequence is a pure function of its touches' hit flags: each chunk is
``n = batch_limit(left, worst)`` touches, its hits are a difference of
the flags' prefix sums, and its cost is the expression
``Processor.touch_batch`` charges.  LRU hits are causal — a touch's flag
depends only on the touches before it — so the engine classifies a
*speculative window* of touches in one call that leaves the cache as it
was, and the chunk arithmetic is replayed over the flags.  The cache
changes only through unaccounted ``access_batch`` calls, each touch
played once: a window that a chunk runs past is committed whole before
the next window is classified, and the slice ends by committing its
part of the last window.  Each commit is a prefix of the window just
classified, which the numpy engine writes back from the classified
layout without sorting the touches again.  Every float operation
happens in the order the chunk loop used, so switch points, response
times, stats and the per-chunk
:class:`~repro.obs.records.CacheBatch` records are bit-identical
(``tests/measure/test_slice_loop.py`` keeps the chunk loop as the
referee).  Whether there is a window is a property of the engine
(``max_window``): the numpy engine's is sized from the running miss
rate; the scalar engine has none and plays each chunk with one
``access_batch`` call, as the chunk loop did.
"""

from __future__ import annotations

import math
import sys
import typing

#: Default chunk cap: bounds per-chunk list sizes (memory and latency)
#: while keeping per-chunk Python overhead negligible.  8192 keeps the
#: numpy backend's per-chunk fixed costs well amortized while the chunk
#: working set still fits in L2; both backends use the same cap so they
#: see bit-identical chunk sequences (and emit bit-identical traces).
DEFAULT_CHUNK = 8192

#: Touches a speculative window classifies past what the slice is
#: expected to need at the running miss rate.  Running short costs one
#: more engine call; running long classifies touches the slice leaves.
WINDOW_MARGIN = 512


def batch_limit(
    budget_s: float, worst_touch_cost_s: float, cap: int = DEFAULT_CHUNK
) -> int:
    """Largest touch count guaranteed not to cross ``budget_s`` early.

    Returns ``n >= 1`` such that ``(n - 1) * worst_touch_cost_s``
    is strictly below ``budget_s`` (an all-miss chunk can exhaust the
    budget only on its final touch), capped at ``cap``.  With a
    non-positive budget the caller is already at a boundary and gets 1.
    """
    if budget_s <= 0.0:
        return 1
    n = math.ceil(budget_s / worst_touch_cost_s)
    if n < 1:
        return 1
    if n > cap:
        # budget/worst > cap implies (cap - 1) * worst < budget exactly.
        return cap
    # ceil() of the rounded float quotient can overshoot (e.g. budgets
    # that are exact multiples of the cost, where the true quotient q
    # admits only n = q touches but float division lands just above q);
    # re-check the defining inequality and clamp down until it holds.
    while n > 1 and (n - 1) * worst_touch_cost_s >= budget_s:
        n -= 1
    return n


def worst_touch_cost(miss_time_s: float, hit_time_s: float, refs_per_touch: int) -> float:
    """Cost of an all-miss touch: one fill plus the rest at hit speed.

    Computed with the exact expression ``Processor.touch`` uses, so chunk
    sizing and cost accounting can never disagree.
    """
    return miss_time_s + (refs_per_touch - 1) * hit_time_s


def play(
    proc: typing.Any,
    owner: typing.Hashable,
    reader: typing.Any,
    budget: float,
    refs_per_touch: int,
    limit: typing.Optional[int] = None,
    total: float = 0.0,
    from_spent: bool = False,
) -> typing.Tuple[int, float, float]:
    """Play ``owner``'s touches from ``reader`` on ``proc`` for ``budget`` s.

    Chunks are played exactly as the chunk-by-chunk loop played them:
    ``n = batch_limit(left, worst)`` touches (never past ``limit``), then
    ``left -= cost`` — or, with ``from_spent``, ``spent += cost`` and
    ``left = budget - spent`` (the cache oracle's arithmetic) — until
    ``left <= 0`` or ``limit`` touches are played.  Each chunk's cost is
    added to ``total`` in chunk order, to ``proc.busy_time`` likewise,
    and accounted with one ``note_batch`` record.  ``reader`` supplies
    ``take(n)``, ``peek(start, n)`` and ``skip(n)`` (a
    :class:`~repro.apps.reference.BlockReader`).

    Returns ``(touches played, budget left, total)``.
    """
    if refs_per_touch < 1:
        raise ValueError("refs_per_touch must be at least 1")
    cache = proc.cache
    spec = proc.spec
    hit_cost = refs_per_touch * spec.hit_time_s
    miss_cost = worst_touch_cost(spec.miss_time_s, spec.hit_time_s, refs_per_touch)
    max_window = cache.max_window
    chunks: typing.List[typing.Tuple[int, int, float]] = []
    left = budget
    spent = 0.0
    pos = 0  # touches replayed, always at a chunk boundary
    done_hits = 0  # hits among them
    # The classified windows cover touches [0, w_end); the last one
    # starts at w_start, and every touch before it is committed.
    w_start = w_end = w_hits = 0
    before = 0  # hits among the touches before w_start
    flags: typing.Any = None
    prefix: typing.Any = None
    while left > 0.0 and pos != limit:
        n = batch_limit(left, miss_cost)
        if limit is not None and n > limit - pos:
            n = limit - pos
        end = pos + n
        if not max_window:
            blocks = reader.take(n)
            if type(blocks) is not list:
                # Python ints keep the scalar engine's ``base + block``
                # exact (a stored int32 stream would overflow it)
                blocks = blocks.tolist()
            hits = cache.access_batch(owner, blocks, account=False)
        else:
            if end > w_end:
                # Classify the next window, from w_end on.
                wanted = _expected_touches(
                    cache, left, hit_cost, miss_cost, w_end, before + w_hits
                ) - (w_end - pos)
                size = max(end - w_end, min(max_window, wanted))
                if limit is not None:
                    size = min(size, limit - w_end)
                if w_end:
                    # This chunk runs past the window: commit all of it.
                    cache.access_batch(
                        owner, reader.peek(w_start, w_end - w_start), account=False
                    )
                before += w_hits
                w_start = w_end
                w_end += size
                w_hits, flags = cache.hit_flags(owner, reader.peek(w_start, size))
                prefix = None
            if end == w_end:
                hits = before + w_hits - done_hits
            else:
                if prefix is None:
                    prefix = flags.cumsum()
                hits = before + int(prefix[end - w_start - 1]) - done_hits
        cost = hits * hit_cost + (n - hits) * miss_cost
        total += cost
        if from_spent:
            spent += cost
            left = budget - spent
        else:
            left -= cost
        chunks.append((n, hits, cost))
        pos = end
        done_hits += hits
    if w_end:
        # Commit the slice's part of the last window.
        cache.access_batch(owner, reader.peek(w_start, pos - w_start), account=False)
        reader.skip(pos)
    for n, hits, cost in chunks:
        cache.note_batch(owner, n, hits)
        proc.busy_time += cost
    return pos, left, total


def play_slices(
    proc: typing.Any,
    reader: typing.Any,
    q_s: float,
    refs_per_touch: int,
    n_touches: int,
    on_switch: typing.Callable[[], object],
) -> typing.Tuple[float, int]:
    """Play ``n_touches`` of the measured program in slices of ``q_s``.

    Calls ``on_switch()`` at every rescheduling point (a slice whose
    budget ran out).  Returns ``(response time, switches)``.
    """
    response_time = 0.0
    switches = 0
    remaining = n_touches
    while remaining:
        played, left, response_time = play(
            proc, "measured", reader, q_s, refs_per_touch,
            limit=remaining, total=response_time,
        )
        remaining -= played
        if left <= 0.0:
            switches += 1
            on_switch()
    return response_time, switches


def _expected_touches(
    cache: typing.Any,
    budget: float,
    hit_cost: float,
    miss_cost: float,
    classified: int,
    classified_hits: int,
) -> int:
    """Touches ``budget`` buys at the running miss rate, plus the margin.

    The rate is the slice's own once it has classified touches, else the
    cache's overall rate so far (all misses before any access).
    """
    if classified:
        miss_rate = 1.0 - classified_hits / classified
    else:
        stats = cache.stats
        miss_rate = stats.misses / stats.accesses if stats.accesses else 1.0
    per_touch = hit_cost + miss_rate * (miss_cost - hit_cost)
    if per_touch <= 0.0:  # free hits (a zero hit time): no estimate
        return sys.maxsize
    return int(budget / per_touch) + WINDOW_MARGIN
