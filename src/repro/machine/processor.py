"""A single processor with its private cache."""

from __future__ import annotations

import typing

from repro.machine.cache import SetAssociativeCache
from repro.machine.params import MachineSpec


class Processor:
    """One CPU of the machine: an id, a private cache, and time accounting.

    The processor exposes a *touch* API used by the reference-trace
    experiments: a touch is one block access that stands for
    ``refs_per_touch`` consecutive references to that block (the trace
    generators aggregate temporal locality this way to keep the simulation
    tractable; only the first reference of a run can miss).

    ``touch_batch`` plays a whole chunk of touches through the cache's
    batch interface and accounts their aggregate cost in one step (the
    Section 4 drivers play whole slices through
    :func:`repro.machine.batching.play`, which charges the same cost).  Hit/miss behaviour is identical to a
    ``touch`` loop; only the floating-point summation order of the time
    cost differs (aggregate multiply-add versus per-touch accumulation).
    """

    def __init__(
        self,
        cpu_id: int,
        spec: MachineSpec,
        tracer: typing.Optional[object] = None,
        backend: typing.Optional[str] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.spec = spec
        self.cache = SetAssociativeCache(spec, backend=backend)
        self.busy_time = 0.0
        if tracer is not None:
            self.attach_tracer(tracer)

    def attach_tracer(self, tracer: typing.Optional[object]) -> None:
        """Route this processor's cache records to ``tracer``.

        Records are stamped with the processor's accumulated busy time,
        which is the virtual clock of the single-processor measurement
        experiments this API serves.
        """
        self.cache.attach_tracer(
            tracer, cpu_id=self.cpu_id, clock=lambda: self.busy_time
        )

    def touch(self, owner: typing.Hashable, block: int, refs_per_touch: int = 1) -> float:
        """Access ``block`` for ``owner``; returns the time cost in seconds.

        A hit costs ``refs_per_touch`` hit-times; a miss costs one miss
        resolution plus the remaining references at hit speed.
        """
        if refs_per_touch < 1:
            raise ValueError("refs_per_touch must be at least 1")
        hit = self.cache.access(owner, block)
        if hit:
            cost = refs_per_touch * self.spec.hit_time_s
        else:
            cost = self.spec.miss_time_s + (refs_per_touch - 1) * self.spec.hit_time_s
        self.busy_time += cost
        return cost

    def touch_batch(
        self,
        owner: typing.Hashable,
        blocks: typing.Sequence[int],
        refs_per_touch: int = 1,
    ) -> float:
        """Access every block in ``blocks`` in order for ``owner``.

        Returns the aggregate time cost in seconds (the sum of what the
        equivalent :meth:`touch` loop would charge).
        """
        if refs_per_touch < 1:
            raise ValueError("refs_per_touch must be at least 1")
        hits = self.cache.access_batch(owner, blocks)
        spec = self.spec
        hit_cost = refs_per_touch * spec.hit_time_s
        miss_cost = spec.miss_time_s + (refs_per_touch - 1) * spec.hit_time_s
        cost = hits * hit_cost + (len(blocks) - hits) * miss_cost
        self.busy_time += cost
        return cost

    def flush_cache(self) -> int:
        """Invalidate the private cache (returns lines dropped)."""
        return self.cache.flush()

    def __repr__(self) -> str:
        return f"Processor(id={self.cpu_id})"
