"""Discrete-event simulation core used by every experiment in this package.

The engine is deliberately small and dependency free: a cancellable
binary-heap event queue with an explicit event lifecycle
(``PENDING → FIRED | CANCELLED``), a run loop that owns the virtual
clock and calls trace hooks, seeded
per-component random streams, the sample statistics (mean, 95%
confidence interval) the replication summaries report, and the ordered
process-pool fan-out (:func:`~repro.engine.parallel.map_items`) the sweep
executor runs its shards on.
"""

from repro.engine.events import Event, EventState
from repro.engine.parallel import map_items
from repro.engine.queue import EventQueue
from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.engine.stats import ConfidenceInterval, SampleStats

__all__ = [
    "ConfidenceInterval",
    "Event",
    "EventQueue",
    "EventState",
    "RngRegistry",
    "SampleStats",
    "Simulator",
    "map_items",
]
