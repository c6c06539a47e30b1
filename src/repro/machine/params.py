"""Machine parameters: the Sequent Symmetry Model B and scaled futures."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class MachineSpec:
    """Static description of a bus-based shared-memory multiprocessor.

    All times are in seconds.  ``processor_speed`` and ``cache_size_factor``
    are *relative* scale factors (1.0 = the Symmetry) used by the Section 7
    future-machine model; the base experiments run at 1.0/1.0.
    """

    name: str
    n_processors: int
    clock_mhz: float
    cache_size_bytes: int
    associativity: int
    line_size_bytes: int
    miss_time_s: float
    hit_time_s: float
    context_switch_s: float
    processor_speed: float = 1.0
    cache_size_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.n_processors <= 0:
            raise ValueError("need at least one processor")
        if self.cache_size_bytes % (self.line_size_bytes * self.associativity):
            raise ValueError("cache size must be a whole number of sets")
        if self.miss_time_s <= self.hit_time_s:
            raise ValueError("a miss must cost more than a hit")

    @property
    def cache_lines(self) -> int:
        """Total number of cache lines (4096 on the Symmetry)."""
        return self.cache_size_bytes // self.line_size_bytes

    @property
    def cache_sets(self) -> int:
        """Number of cache sets (2048 on the Symmetry)."""
        return self.cache_lines // self.associativity

    def scaled(self, processor_speed: float, cache_size_factor: float) -> "MachineSpec":
        """A future machine per Section 7.1.

        * Computation runs ``processor_speed`` times faster.
        * The cache holds ``cache_size_factor`` times more lines.
        * Miss resolution speeds up only as sqrt(processor_speed)
          (Section 7.1.3, after [Jouppi 90]).
        """
        if processor_speed <= 0 or cache_size_factor <= 0:
            raise ValueError("scale factors must be positive")
        speed = processor_speed
        return dataclasses.replace(
            self,
            name=f"{self.name} x{speed:g} speed, x{cache_size_factor:g} cache",
            clock_mhz=self.clock_mhz * speed,
            cache_size_bytes=int(self.cache_size_bytes * cache_size_factor),
            miss_time_s=self.miss_time_s / (speed ** 0.5),
            hit_time_s=self.hit_time_s / speed,
            context_switch_s=self.context_switch_s / speed,
            processor_speed=self.processor_speed * speed,
            cache_size_factor=self.cache_size_factor * cache_size_factor,
        )


#: The paper's testbed.  The 0.125 us hit time corresponds to a 2-cycle
#: cache hit at 16 MHz; the paper gives the 0.75 us miss fill and the 750 us
#: reallocation path length directly.
SEQUENT_SYMMETRY = MachineSpec(
    name="Sequent Symmetry Model B",
    n_processors=20,
    clock_mhz=16.0,
    cache_size_bytes=64 * 1024,
    associativity=2,
    line_size_bytes=16,
    miss_time_s=0.75e-6,
    hit_time_s=0.125e-6,
    context_switch_s=750e-6,
)


def future_machine(processor_speed: float, cache_size_factor: float) -> MachineSpec:
    """A Symmetry scaled per the Section 7 assumptions."""
    return SEQUENT_SYMMETRY.scaled(processor_speed, cache_size_factor)
