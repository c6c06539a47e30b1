"""The two-level cache analysis behind Section 7's sqrt(speed) assumption.

Section 7.2: "To gauge the amount by which hit rates must be increased,
we analyzed a simple model consisting of two levels of cache memory and a
single central memory.  We found that because multiprocessor hit rates
may already be expected to be quite high, there was little room for
improvement: hit rates could not be increased enough to obviate the need
for faster miss resolution.  For this reason, the model assumes that
(effective) memory speed must increase as sqrt(processor-speed)."

This module reconstructs that analysis.  The model: a reference costs

    t_eff = h1 * t1  +  (1 - h1) * [ h2 * t2 + (1 - h2) * t_mem ]

On a machine ``s`` times faster, on-chip times scale as ``t1/s`` and
``t2/s`` while main memory improves only by a factor ``m`` (``t_mem/m``).
For the processor to deliver its full factor-``s`` effective speedup, the
memory term must shrink by ``s`` as well — achievable only by shrinking
the *combined miss fraction* ``(1-h1)(1-h2)`` by ``s/m``.  Starting from
already-high hit rates, the required secondary hit rate quickly exceeds
1, i.e. is infeasible — hence the sqrt law.
"""

from __future__ import annotations

import dataclasses
import math
import typing


@dataclasses.dataclass(frozen=True)
class TwoLevelCache:
    """A two-level cache hierarchy over a single central memory.

    Times are per reference, in seconds on the base machine; hit rates
    are fractions.  Defaults follow the Symmetry-era shape: a fast L1,
    an L2 ~4x slower, memory ~25x slower than L1, and the "already quite
    high" multiprocessor hit rates the paper cites.
    """

    l1_time_s: float = 0.125e-6
    l2_time_s: float = 0.5e-6
    memory_time_s: float = 3.0e-6
    l1_hit_rate: float = 0.95
    l2_hit_rate: float = 0.80

    def __post_init__(self) -> None:
        if not 0.0 <= self.l1_hit_rate <= 1.0 or not 0.0 <= self.l2_hit_rate <= 1.0:
            raise ValueError("hit rates must be fractions in [0, 1]")
        if not 0 < self.l1_time_s <= self.l2_time_s <= self.memory_time_s:
            raise ValueError("need l1 <= l2 <= memory access times, all positive")

    @property
    def combined_miss_fraction(self) -> float:
        """Fraction of references that reach main memory."""
        return (1.0 - self.l1_hit_rate) * (1.0 - self.l2_hit_rate)

    def effective_access_time(
        self, processor_speed: float = 1.0, memory_speedup: float = 1.0
    ) -> float:
        """Mean per-reference time on a scaled machine.

        On-chip levels scale with ``processor_speed``; central memory
        only by ``memory_speedup``.
        """
        if processor_speed <= 0 or memory_speedup <= 0:
            raise ValueError("speedups must be positive")
        on_chip = (
            self.l1_hit_rate * self.l1_time_s
            + (1.0 - self.l1_hit_rate) * self.l2_hit_rate * self.l2_time_s
        )
        return (
            on_chip / processor_speed
            + self.combined_miss_fraction * self.memory_time_s / memory_speedup
        )

    def required_l2_hit_rate(
        self, processor_speed: float, memory_speedup: float = 1.0
    ) -> float:
        """L2 hit rate needed for the *full* factor-``s`` speedup.

        Solves ``t_eff(s) = t_eff(1) / s`` for the secondary hit rate with
        everything else fixed.  A value above 1 means no hit rate
        suffices — the paper's "little room for improvement".
        """
        if processor_speed <= 0 or memory_speedup <= 0:
            raise ValueError("speedups must be positive")
        l1_miss = 1.0 - self.l1_hit_rate
        if l1_miss == 0.0:
            return 0.0  # memory never referenced; any L2 works
        # Let h2' be the unknown. t_eff(s) with scaled on-chip times:
        #   [h1*t1 + l1_miss*h2'*t2]/s + l1_miss*(1-h2')*t_mem/m
        # set equal to t_eff(1)/s and solve for h2'.
        target = self.effective_access_time() / processor_speed
        base_l1 = self.l1_hit_rate * self.l1_time_s / processor_speed
        # target = base_l1 + l1_miss*h2'*t2/s + l1_miss*(1-h2')*t_mem/m
        s = processor_speed
        m = memory_speedup
        numerator = target - base_l1 - l1_miss * self.memory_time_s / m
        denominator = l1_miss * (self.l2_time_s / s - self.memory_time_s / m)
        return numerator / denominator

    #: Practical ceiling on achievable secondary hit rates: program hit
    #: rates "grow extremely slowly as cache size increases" [Wang et al.
    #: 89], so rates above this are not realistically reachable.
    PRACTICAL_L2_CEILING = 0.98

    def is_full_speedup_feasible(
        self,
        processor_speed: float,
        memory_speedup: float = 1.0,
        max_l2_hit_rate: typing.Optional[float] = None,
    ) -> bool:
        """Can *achievable* hit-rate improvements deliver the full speedup?

        A mathematically-required rate always exists below 1 (a perfect
        L2 never touches memory), so feasibility is judged against the
        practical ceiling — which is the paper's actual argument: "there
        was little room for improvement".
        """
        ceiling = (
            max_l2_hit_rate if max_l2_hit_rate is not None else self.PRACTICAL_L2_CEILING
        )
        required = self.required_l2_hit_rate(processor_speed, memory_speedup)
        return required <= ceiling


def sqrt_memory_law_table(
    cache: typing.Optional[TwoLevelCache] = None,
    speeds: typing.Sequence[float] = (2, 4, 10, 100, 1000),
) -> typing.List[typing.Tuple[float, float, float, bool]]:
    """The Section 7.2 argument as a table.

    For each processor speed, returns ``(speed, required L2 hit rate with
    constant memory, required L2 hit rate with sqrt-speed memory,
    feasible under the sqrt law)``.  With constant memory the required
    rate blows past the practical ceiling almost immediately; under the
    sqrt law it stays achievable an order of magnitude further out —
    which is why the Figure 7 model divides the cache penalty by
    sqrt(processor-speed) rather than assuming constant-speed memory.
    """
    cache = cache if cache is not None else TwoLevelCache()
    rows = []
    for speed in speeds:
        constant_memory = cache.required_l2_hit_rate(speed, memory_speedup=1.0)
        sqrt_memory = cache.required_l2_hit_rate(
            speed, memory_speedup=math.sqrt(speed)
        )
        rows.append(
            (
                float(speed),
                constant_memory,
                sqrt_memory,
                cache.is_full_speedup_feasible(speed, math.sqrt(speed)),
            )
        )
    return rows
