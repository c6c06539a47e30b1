"""Hardware model of the paper's testbed.

The paper's machine is a Sequent Symmetry Model B: twenty 16 MHz Intel
80386 processors on a shared bus, each with a 64-Kbyte 2-way set-associative
copy-back cache with 16-byte lines.  The paper estimates 0.75 us to fetch
one cache block from main memory and 750 us of kernel path length per
processor reallocation.

Two cache models live here:

* :class:`~repro.machine.cache.SetAssociativeCache` — a stateful block-level
  simulator with true set indexing and LRU replacement.  The Section 4
  penalty measurements (Table 1) run on this.
* :class:`~repro.machine.footprint.FootprintModel` — the Thiebaut/Stone
  style analytic survival model used by the discrete-event scheduler
  simulations, parameterized by the same application constants and
  validated against the stateful simulator in the test suite.
"""

from repro.machine.bus import BusModel
from repro.machine.cache import CacheStats, SetAssociativeCache
from repro.machine.cache_oracle import SimulatedCacheFootprint
from repro.machine.footprint import (
    FootprintCurve,
    FootprintModel,
    LinearFootprintCurve,
    TaskCacheState,
)
from repro.machine.hierarchy import TwoLevelCache, sqrt_memory_law_table
from repro.machine.params import (
    SEQUENT_SYMMETRY,
    MachineSpec,
    future_machine,
)
from repro.machine.processor import Processor

__all__ = [
    "BusModel",
    "CacheStats",
    "FootprintCurve",
    "FootprintModel",
    "LinearFootprintCurve",
    "MachineSpec",
    "Processor",
    "SEQUENT_SYMMETRY",
    "SetAssociativeCache",
    "SimulatedCacheFootprint",
    "TaskCacheState",
    "TwoLevelCache",
    "future_machine",
    "sqrt_memory_law_table",
]
