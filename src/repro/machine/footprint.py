"""Analytic cache-footprint survival model for the scheduler simulations.

Simulating every memory reference inside the multi-job scheduling
experiments would be prohibitively slow, and — as the paper's own response
time model (Section 2) shows — unnecessary: all the scheduler can perceive
of the cache is the *reload penalty* a task pays when it is (re)dispatched.
This module computes that penalty analytically, in the spirit of
[Thiebaut & Stone 87] ("Footprints in the Cache"):

* A task that runs for ``d`` seconds builds a footprint of
  ``f(d) = w_max * (1 - exp(-d / tau))`` distinct cache lines (capped at
  the cache size).  ``w_max`` and ``tau`` are per-application constants,
  calibrated so the penalties measured by the Section 4 experiment land in
  Table 1's bands.
* While other tasks run on the same processor, a departed task's footprint
  decays: after intervening fills of ``U`` distinct lines into a cache of
  ``L`` lines, each line survives with probability ``exp(-U / L)`` (the
  Poisson approximation for random set conflicts; validated against the
  stateful simulator in ``tests/machine/test_footprint_vs_cache.py``).
* On dispatch, the reload penalty is ``lost_lines * miss_time`` —
  the whole footprint for a processor the task has no affinity for
  (``P^NA``), or only the decayed-away part where it does (``P^A``).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.machine.params import MachineSpec


@dataclasses.dataclass(frozen=True)
class FootprintCurve:
    """Working-set growth law for one application.

    ``distinct_blocks(d) = w_max * (1 - exp(-d / tau))``: the number of
    distinct cache lines touched in a stint of ``d`` seconds.  MATRIX has a
    small ``w_max`` with tiny ``tau`` (a cache-blocked working set touched
    immediately and reused); GRAVITY a large ``w_max`` with large ``tau``
    (a big octree footprint built slowly); MVA sits between.
    """

    w_max: float
    tau: float

    def __post_init__(self) -> None:
        if self.w_max <= 0 or self.tau <= 0:
            raise ValueError("w_max and tau must be positive")

    def distinct_blocks(self, duration: float) -> float:
        """Distinct cache lines touched during a stint of ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return self.w_max * (1.0 - math.exp(-duration / self.tau))


@dataclasses.dataclass(frozen=True)
class LinearFootprintCurve:
    """Sharp-knee working-set growth: hot set plus sequential scan.

    ``distinct_blocks(d) = min(hot + rate * d, cap)``: a persistent hot set
    of ``hot`` lines is (re)loaded almost immediately, after which a
    sequential scan adds ``rate`` new lines per second up to the data size
    ``cap``.  This is the growth law of blocked/streaming computations
    (MATRIX's resident tiles + streamed input, MVA's table + scan), and the
    near-linear-then-saturating P^NA curves of Table 1 select it over the
    exponential form.
    """

    hot: float
    rate: float
    cap: float

    def __post_init__(self) -> None:
        if self.hot < 0 or self.rate < 0 or self.cap <= 0:
            raise ValueError("hot/rate must be non-negative and cap positive")

    def distinct_blocks(self, duration: float) -> float:
        """Distinct cache lines touched during a stint of ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return min(self.hot + self.rate * duration, self.cap)


#: Anything with a ``distinct_blocks(duration) -> float`` method.
Curve = typing.Union[FootprintCurve, LinearFootprintCurve]


@dataclasses.dataclass
class Residue:
    """A footprint left behind on one processor."""

    footprint: float
    usage_mark: float


@dataclasses.dataclass
class TaskCacheState:
    """What the model remembers about a task's cache residues.

    Attributes:
        processor: where the task last ran (None before its first stint).
        footprint: lines the task held when it last departed anywhere —
            its current cache context size.
        usage_mark: that processor's fill counter at departure.
        residues: surviving contexts on recently-used processors (the
            task may return to an older processor and still find data;
            bounded at :data:`FootprintModel.MAX_RESIDUES` entries).
    """

    processor: typing.Optional[int] = None
    footprint: float = 0.0
    usage_mark: float = 0.0
    residues: typing.Dict[int, Residue] = dataclasses.field(default_factory=dict)


class FootprintModel:
    """Tracks per-task footprints across processors and prices reloads.

    The model keeps one cumulative-fill counter per processor; survival of
    a departed footprint is a pure function of the counter delta, so both
    ``note_run`` and ``reload_penalty`` are O(1).
    """

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self._lines = float(spec.cache_lines)
        self._usage: typing.Dict[int, float] = {}
        self._tasks: typing.Dict[typing.Hashable, TaskCacheState] = {}

    def state_of(self, task: typing.Hashable) -> TaskCacheState:
        """The (possibly fresh) cache state record for ``task``."""
        if task not in self._tasks:
            self._tasks[task] = TaskCacheState()
        return self._tasks[task]

    def processor_usage(self, processor: int) -> float:
        """Cumulative distinct-line fills observed on ``processor``."""
        return self._usage.get(processor, 0.0)

    #: residues remembered per task (the paper's history depth is 1; we
    #: keep a few so returns to recently-used processors are priced
    #: fairly — relevant to the history-depth ablation)
    MAX_RESIDUES = 4

    def surviving_footprint(self, task: typing.Hashable, processor: int) -> float:
        """Lines of ``task``'s old footprint still resident on ``processor``."""
        state = self.state_of(task)
        residue = state.residues.get(processor)
        if residue is None:
            return 0.0
        intervening = self.processor_usage(processor) - residue.usage_mark
        if intervening <= 0:
            return residue.footprint
        return residue.footprint * math.exp(-intervening / self._lines)

    def reload_penalty(
        self, task: typing.Hashable, processor: int
    ) -> typing.Tuple[float, bool]:
        """Cache penalty (seconds) for dispatching ``task`` on ``processor``.

        Returns:
            ``(penalty_seconds, had_affinity)``.  ``had_affinity`` is True
            when the task's last stint was on this same processor — the
            paper's definition with history depth P = 1.
        """
        state = self.state_of(task)
        had_affinity = state.processor == processor
        surviving = min(self.surviving_footprint(task, processor), state.footprint)
        lost = max(0.0, state.footprint - surviving)
        return lost * self.spec.miss_time_s, had_affinity

    def note_run(
        self,
        task: typing.Hashable,
        processor: int,
        duration: float,
        curve: Curve,
    ) -> None:
        """Record that ``task`` just ran on ``processor`` for ``duration`` s.

        Updates the task's residence record and charges the processor's
        fill counter with the distinct lines the stint touched (new fills
        only — lines that survived from the task's previous stint on this
        processor do not evict anything).
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        state = self.state_of(task)
        surviving = self.surviving_footprint(task, processor)
        built = min(curve.distinct_blocks(duration), self._lines)
        footprint = min(max(surviving, built), self._lines)
        new_fills = max(0.0, footprint - surviving)
        self._usage[processor] = self.processor_usage(processor) + new_fills
        state.processor = processor
        state.footprint = footprint
        state.usage_mark = self.processor_usage(processor)
        state.residues[processor] = Residue(
            footprint=footprint, usage_mark=state.usage_mark
        )
        if len(state.residues) > self.MAX_RESIDUES:
            # Drop the residue that has decayed the most (oldest mark).
            stalest = min(
                (p for p in state.residues if p != processor),
                key=lambda p: state.residues[p].usage_mark,
            )
            del state.residues[stalest]

    def forget(self, task: typing.Hashable) -> None:
        """Drop a finished task's record."""
        self._tasks.pop(task, None)

    def flush_processor(self, processor: int) -> float:
        """Invalidate every residue on ``processor`` (a CPU failure).

        Each task's residence record (``state.processor`` / ``footprint``)
        is kept: a task returning to the recovered processor still *had*
        affinity there, but finds a cold cache and pays the full reload.

        Returns:
            Lines lost, decayed to the flush instant and capped at the
            cache size (the physical content of one private cache).
        """
        lost = 0.0
        for task, state in self._tasks.items():
            if processor in state.residues:
                lost += self.surviving_footprint(task, processor)
                del state.residues[processor]
        return min(lost, self._lines)
