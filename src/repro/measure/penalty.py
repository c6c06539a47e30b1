"""The Section 4 cache-penalty measurement (Table 1).

The paper's experiment: run each program on a single processor under a
special allocator that reschedules it every Q ms, taking one of three
actions at each rescheduling point:

* **stationary** — immediately replace the program (baseline);
* **migrating** — flush the cache, then replace (captures ``P^NA``, the
  penalty of resuming where the task has no affinity);
* **multiprog** — run a task from another program for duration Q, then
  replace (captures ``P^A``, the penalty of resuming with affinity after
  an intervening task).

Then::

    P^NA = (RT_migrating - RT_stationary) / #switches
    P^A  = (RT_multiprog - RT_stationary) / #switches

We reproduce the experiment on the stateful cache simulator.  Every regime
executes the *identical* touch sequence for the measured program (common
random numbers), so response time differences are purely miss-pattern
differences, exactly as on the real machine.

Fidelity scaling: the experiment runs by default at 1/16 scale — cache
and working sets shrink 16x while the per-miss time grows 16x, leaving all
penalties in *seconds* unchanged (see :func:`repro.apps.reference.reduced_machine`).
Each cell draws the measured stream once and every regime replays it;
the regime loops drive the simulator through the shared slice loop
(:func:`repro.machine.batching.play`) rather than one touch at a time,
which makes the full-fidelity ``scale=1`` run feasible too — the CLI exposes it
via ``--scale 1``.  Tests validate that scale does not bias the measured
penalties.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.apps.base import AppSpec
from repro.apps.reference import (
    BlockReader,
    ReferenceGenerator,
    read_stream,
    reduced_machine,
)
from repro.engine.rng import RngRegistry
from repro.machine.batching import play, play_slices
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.machine.processor import Processor

#: The paper's rescheduling intervals: a typical I/O wait, the DYNIX time
#: sharing quantum, and a rough dynamic space-sharing reallocation interval.
PAPER_QUANTA_S = (0.025, 0.100, 0.400)


def check_quantum(q_s: float) -> None:
    """Reject a rescheduling interval that is not a positive, finite time."""
    if not (math.isfinite(q_s) and q_s > 0):
        raise ValueError(f"Q must be a positive, finite time in seconds; got {q_s!r}")


@dataclasses.dataclass(frozen=True)
class RegimeRun:
    """Outcome of running the measured program under one regime."""

    response_time: float
    n_switches: int
    hit_rate: float


@dataclasses.dataclass(frozen=True)
class PenaltyResult:
    """Measured penalties for one (application, Q) pair."""

    app: str
    q_s: float
    stationary: RegimeRun
    migrating: RegimeRun
    multiprog: typing.Dict[str, RegimeRun]

    @property
    def p_na_s(self) -> float:
        """``P^NA`` in seconds per switch."""
        extra = self.migrating.response_time - self.stationary.response_time
        return extra / max(1, self.migrating.n_switches)

    def p_a_s(self, partner: str) -> float:
        """``P^A`` in seconds per switch, against ``partner``'s interference."""
        run = self.multiprog[partner]
        extra = run.response_time - self.stationary.response_time
        return extra / max(1, run.n_switches)

    @property
    def p_na_us(self) -> float:
        """``P^NA`` in microseconds (Table 1's unit)."""
        return self.p_na_s * 1e6

    def p_a_us(self, partner: str) -> float:
        """``P^A`` in microseconds (Table 1's unit)."""
        return self.p_a_s(partner) * 1e6


@dataclasses.dataclass(frozen=True)
class PenaltyTable:
    """The full Table 1: results per app per Q."""

    results: typing.Dict[typing.Tuple[str, float], PenaltyResult]
    partner_names: typing.Tuple[str, ...]

    def result(self, app: str, q_s: float) -> PenaltyResult:
        """Lookup one cell group."""
        return self.results[(app, q_s)]

    def quanta(self) -> typing.List[float]:
        """Distinct Q values present, sorted."""
        return sorted({q for (_, q) in self.results})

    def apps(self) -> typing.List[str]:
        """Distinct measured applications, in first-seen order."""
        seen: typing.List[str] = []
        for app, _ in self.results:
            if app not in seen:
                seen.append(app)
        return seen


class PenaltyExperiment:
    """Single-processor Q-rescheduling measurement on the cache simulator."""

    def __init__(
        self,
        machine: MachineSpec = SEQUENT_SYMMETRY,
        scale: int = 16,
        n_switches_target: int = 40,
        min_run_s: float = 2.0,
        seed: int = 0,
        tracer: typing.Optional[object] = None,
        metrics: typing.Optional[object] = None,
        backend: typing.Optional[str] = None,
    ) -> None:
        if n_switches_target < 2:
            raise ValueError("need at least 2 switches for a measurement")
        self.machine = reduced_machine(machine, scale)
        self.scale = scale
        self.n_switches_target = n_switches_target
        self.min_run_s = min_run_s
        self.seed = seed
        self.tracer = tracer
        self.metrics = metrics
        #: engine for the regime processors' caches *and* the reference
        #: generators (None = numpy when it imports, else scalar)
        self.backend = backend

    # ------------------------------------------------------------------ #

    def _touch_count(self, app: AppSpec, q_s: float) -> int:
        """Touches amounting to ~n_switches_target slices of hit-speed work."""
        ref = app.reference.reduced(self.scale)
        total_seconds = max(self.min_run_s, self.n_switches_target * q_s)
        per_touch = ref.refs_per_touch * self.machine.hit_time_s
        return int(total_seconds / per_touch)

    def _run_regime(
        self,
        app: AppSpec,
        q_s: float,
        regime: str,
        partner: typing.Optional[AppSpec],
        n_touches: int,
        stream: typing.Sequence[int],
    ) -> RegimeRun:
        """Execute the measured program once under one regime.

        ``stream`` is the measured program's stored touch sequence
        (:meth:`_measured_stream`).
        """
        app_ref = app.reference.reduced(self.scale)
        reader = BlockReader.over(stream)
        if partner is not None:
            rng = RngRegistry(self.seed).spawn(f"{app.name}/q{q_s:g}")
            partner_ref = partner.reference.reduced(self.scale)
            # The partner's reader may run past its last slice.
            partner_reader = BlockReader(
                ReferenceGenerator(
                    partner_ref, rng.stream("partner"), backend=self.backend
                )
            )

        proc = Processor(0, self.machine, tracer=self.tracer, backend=self.backend)

        def on_switch() -> None:
            if regime == "migrating":
                proc.flush_cache()
            elif regime == "multiprog":
                play(proc, "partner", partner_reader, q_s, partner_ref.refs_per_touch)

        response_time, switches = play_slices(
            proc, reader, q_s, app_ref.refs_per_touch, n_touches, on_switch
        )
        if self.metrics is not None:
            metrics = self.metrics
            stats = proc.cache.stats
            metrics.counter("penalty/cache_hits").inc(stats.hits)
            metrics.counter("penalty/cache_misses").inc(stats.misses)
            metrics.counter("penalty/switches").inc(switches)
            metrics.counter("penalty/touches").inc(n_touches)
            metrics.histogram("penalty/regime_response_s").observe(response_time)
        return RegimeRun(
            response_time=response_time,
            n_switches=switches,
            hit_rate=proc.cache.stats.hit_rate,
        )

    def _measured_stream(
        self, app: AppSpec, q_s: float, n_touches: int
    ) -> typing.Sequence[int]:
        """The measured program's ``n_touches`` touches, drawn once per cell."""
        rng = RngRegistry(self.seed).spawn(f"{app.name}/q{q_s:g}")
        gen = ReferenceGenerator(
            app.reference.reduced(self.scale), rng.stream("app"), backend=self.backend
        )
        return read_stream(gen, n_touches)

    def measure(
        self,
        app: AppSpec,
        q_s: float,
        partners: typing.Sequence[AppSpec],
    ) -> PenaltyResult:
        """Measure ``P^NA`` and ``P^A`` (one per partner) for ``app`` at Q."""
        check_quantum(q_s)
        n_touches = self._touch_count(app, q_s)
        # Every regime replays the identical measured touch sequence.
        stream = self._measured_stream(app, q_s, n_touches)

        def run(regime: str, partner: typing.Optional[AppSpec]) -> RegimeRun:
            return self._run_regime(app, q_s, regime, partner, n_touches, stream)

        stationary = run("stationary", None)
        migrating = run("migrating", None)
        multiprog = {partner.name: run("multiprog", partner) for partner in partners}
        return PenaltyResult(
            app=app.name,
            q_s=q_s,
            stationary=stationary,
            migrating=migrating,
            multiprog=multiprog,
        )

    def table1(
        self,
        apps: typing.Sequence[AppSpec],
        quanta: typing.Sequence[float] = PAPER_QUANTA_S,
    ) -> PenaltyTable:
        """Reproduce the whole of Table 1 for ``apps`` x ``quanta``."""
        results = {}
        for app in apps:
            for q_s in quanta:
                results[(app.name, q_s)] = self.measure(app, q_s, partners=apps)
        return PenaltyTable(
            results=results, partner_names=tuple(a.name for a in apps)
        )
