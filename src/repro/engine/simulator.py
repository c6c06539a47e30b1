"""The discrete-event run loop."""

from __future__ import annotations

import typing

from repro.engine.events import DEFAULT_PRIORITY, Event
from repro.engine.queue import EventQueue
from repro.engine.rng import RngRegistry

TraceHook = typing.Callable[[float, str], None]


class Simulator:
    """Drives a virtual clock over a cancellable event queue.

    A simulation is built by scheduling callables (``schedule``/``at``) and
    calling :meth:`run`.  Components receive the simulator instance and use
    ``sim.now`` for the current time and ``sim.schedule`` for future work.

    ``now`` is a plain attribute, in seconds, that only the run loop and
    :meth:`reset` write.  The clock is monotonic: an event or an ``until``
    that lies before ``now`` is a programming error and raises
    ``ValueError`` rather than silently corrupting causality.

    Trace hooks receive ``(time, label)`` for every fired event; they exist
    for tests and debugging and are never required for correctness.
    """

    def __init__(self, rng: typing.Optional[RngRegistry] = None, seed: int = 0) -> None:
        #: current virtual time in seconds
        self.now = 0.0
        self.queue = EventQueue()
        self.rng = rng if rng is not None else RngRegistry(seed)
        self._trace_hooks: typing.List[TraceHook] = []
        self._events_fired = 0
        self._running = False
        self._stopped = False
        self._profiler: typing.Optional[object] = None

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register a ``(time, label)`` observer called for each fired event."""
        self._trace_hooks.append(hook)

    def attach_tracer(self, tracer: typing.Optional[object]) -> None:
        """Wire a :class:`repro.obs.tracer.Tracer` into the run loop.

        Only a tracer asked for engine events (``capture_engine_events``)
        installs a hook; otherwise this is a no-op, so the run loop's hook
        list stays empty and costs nothing per event.
        """
        if tracer is not None and tracer.capture_engine_events:  # type: ignore[attr-defined]
            self.add_trace_hook(tracer.engine_hook)  # type: ignore[attr-defined]

    def attach_profiler(self, profiler: typing.Optional[object]) -> None:
        """Wire a :class:`repro.obs.profiling.SpanProfiler` into the loop.

        When a profiler is attached, :meth:`run` wraps the whole
        loop in an ``engine/run`` span and each fired event in an
        ``engine/<label-prefix>`` span (the label up to the first ``:``,
        so ``slice:GRAVITY`` aggregates under ``engine/slice``).  With no
        profiler the run loop's only extra cost is one check per
        :meth:`run` call.
        """
        self._profiler = profiler

    def schedule(
        self,
        delay: float,
        action: typing.Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` seconds from now.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.queue.push(self.now + delay, action, priority, label)

    def at(
        self,
        time: float,
        action: typing.Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute virtual ``time`` (>= now).

        Raises:
            ValueError: if ``time`` precedes the current time.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: now={self.now}, time={time}")
        # float(): the run loop copies event times into ``now`` as they are
        return self.queue.push(float(time), action, priority=priority, label=label)

    def cancel(self, handle: Event) -> bool:
        """Cancel a previously scheduled event (idempotent).

        Same as ``handle.cancel()``: a no-op on events that already fired
        or were already cancelled, so a late cancel can never corrupt the
        queue's live accounting.  Returns True if this call cancelled the
        event.
        """
        return handle.cancel()

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def reset(self, seed: typing.Optional[int] = None) -> None:
        """Return the simulator to a pristine state for reuse.

        Cancels everything still queued, rewinds the clock to zero, and
        zeroes the fired-event counter.  Trace hooks are kept (they are
        observers, not simulation state).  Pass ``seed`` to also replace
        the RNG registry; otherwise the existing registry is kept as-is.

        Raises:
            RuntimeError: if called from within a running event.
        """
        if self._running:
            raise RuntimeError("cannot reset a running simulator")
        self.queue.clear()
        self.now = 0.0
        self._events_fired = 0
        self._stopped = False
        if seed is not None:
            self.rng = RngRegistry(seed)

    def run(self, until: typing.Optional[float] = None, max_events: typing.Optional[int] = None) -> float:
        """Execute events in order until exhaustion, ``until``, or ``stop()``.

        Args:
            until: if given, stop once the next event would fire after this
                time; the clock is advanced to ``until`` in that case.
            max_events: optional safety valve for tests.

        Returns:
            The virtual time at which the run loop stopped.

        Raises:
            RuntimeError: if called re-entrantly from within an event.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not re-entrant")
        self._running = True
        self._stopped = False
        fired_this_run = 0
        limited = False
        queue = self.queue
        hooks = self._trace_hooks
        prof = self._profiler
        profiling = prof is not None
        if profiling:
            prof.push("engine/run")  # type: ignore[attr-defined]
        try:
            while queue and not self._stopped:
                if until is not None and queue.peek_time() > until:  # type: ignore[operator]
                    self._advance(until)
                    return self.now
                event = queue.pop()
                time = event.time
                if time < self.now:
                    self._advance(time)  # raises: the clock cannot run backwards
                self.now = time
                self._events_fired += 1
                fired_this_run += 1
                for hook in hooks:
                    hook(time, event.label)
                if profiling:
                    # Aggregate per label family: "slice:GRAVITY" and
                    # "slice:MATRIX" both land in "engine/slice".
                    prof.push("engine/" + (event.label.split(":", 1)[0] or "event"))  # type: ignore[attr-defined]
                    try:
                        event.action()
                    finally:
                        prof.pop()  # type: ignore[attr-defined]
                else:
                    event.action()
                if max_events is not None and fired_this_run >= max_events:
                    limited = True
                    break
            # Advance to `until` only when the queue truly has nothing left
            # before it.  After a max_events or stop() break there may still
            # be events at t <= until; jumping the clock over them would make
            # the next run() raise "clock cannot run backwards".
            if until is not None and not self._stopped and not limited and self.now < until:
                self._advance(until)
            return self.now
        finally:
            if profiling:
                prof.pop()  # type: ignore[attr-defined]
            self._running = False

    def _advance(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises:
            ValueError: if ``time`` precedes the current time.
        """
        if time < self.now:
            raise ValueError(
                f"clock cannot run backwards: now={self.now!r}, requested={time!r}"
            )
        self.now = float(time)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, queued={len(self.queue)}, "
            f"fired={self._events_fired})"
        )
