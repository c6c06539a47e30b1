"""Synchronization modeling: barriers and critical-section contention.

GRAVITY's structure (Figure 4) repeats five phases per simulated time
step, with barrier synchronizations between the parallel phases — the
parallelism briefly drops to one at each barrier.  In the dependence-graph
representation a barrier is simply a zero-service node that all threads of
one phase feed and that all threads of the next phase depend on.

The paper also notes that within some GRAVITY phases "thread times depend
on synchronization delays for critical sections of code".  The
:class:`CriticalSectionModel` captures that: when ``n`` threads of a phase
each spend fraction ``f`` of their service inside a shared critical
section, queueing at the lock inflates expected thread time.  We use the
standard serialization bound: the lock is busy ``n * f * s`` seconds of a
phase whose ideal span is ``s``, so per-thread expected delay grows with
``max(0, n * f - 1)`` extra lock occupancies, each ``f * s`` long, spread
across the phase.
"""

from __future__ import annotations

import typing

from repro.threads.graph import ThreadGraph


def add_barrier(
    graph: ThreadGraph,
    before: typing.Sequence[int],
    phase: str = "barrier",
    service_time: float = 0.0,
) -> int:
    """Insert a barrier node after the threads in ``before``.

    Returns:
        The barrier thread id.  Threads of the next phase should declare a
        dependency on it.
    """
    return graph.add_join(before, service_time, phase=phase)


class CriticalSectionModel:
    """Expected lock-contention inflation for a phase of parallel threads."""

    def __init__(self, critical_fraction: float) -> None:
        if not 0.0 <= critical_fraction < 1.0:
            raise ValueError("critical_fraction must be in [0, 1)")
        self.critical_fraction = critical_fraction

    def inflation(self, n_concurrent: int) -> float:
        """Expected lock wait per second of base service among ``n_concurrent``.

        Each thread expects to wait, on average, for half the other
        threads' critical sections.
        """
        if n_concurrent < 1:
            raise ValueError("n_concurrent must be at least 1")
        return 0.5 * (n_concurrent - 1) * self.critical_fraction

    def inflated_service(self, base_service: float, n_concurrent: int) -> float:
        """Expected service time of one thread among ``n_concurrent`` peers.

        With zero contenders or a zero critical fraction this is the base
        service time.
        """
        inflation = self.inflation(n_concurrent)
        if base_service < 0:
            raise ValueError("base_service must be non-negative")
        return base_service + inflation * base_service
