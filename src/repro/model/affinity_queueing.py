"""The [Squillante & Lazowska 89] affinity-queueing model — the baseline.

Section 8.2: "Our experimental work was preceded by the modeling work of
[Squillante & Lazowska 89].  Using an analytic model of cache footprint
behavior, and an analytic model of a multiprogrammed system and its
workload, they concluded that affinity scheduling can have a pronounced
effect on performance."  The paper then argues the disagreement comes
from domain: S&L model *time-sharing-like* systems with short run
intervals, where tasks interleave rapidly and footprints survive across
few intervening tasks.

This module implements that baseline model so the disagreement can be
exhibited rather than asserted.  The system: ``n_tasks`` tasks cycle
between *thinking* (exponential) and *running* (exponential service) on
``n_processors`` processors.  A dispatched task first reloads the part of
its cache footprint lost to intervening tasks:

    reload(j) = footprint x miss_time x (1 - survival^j)

where ``j`` counts tasks dispatched on that processor since this task
last left it (``j = infinity`` on a fresh processor).  Four disciplines,
as in S&L:

* **FCFS** — head of a global queue goes to any free processor;
* **FP** (fixed processor) — each task is bound to one processor, with a
  per-processor queue (perfect affinity, no load balancing);
* **LP** (last processor) — a free processor first searches the queue
  for a task whose last run was here, falling back to the head;
* **MI** (minimum intervening) — over (queued task, free processor)
  pairs, dispatch the pair with the fewest intervening dispatches,
  breaking ties toward the longest-waiting task.

The benchmark (``benchmarks/bench_squillante_lazowska.py``) sweeps the
mean run interval: at short, time-sharing-like intervals affinity
disciplines beat FCFS clearly (S&L's conclusion); at the long intervals
space sharing produces, the gap collapses (this paper's conclusion).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.engine.rng import RngRegistry
from repro.engine.simulator import Simulator
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec

POLICIES = ("FCFS", "FP", "LP", "MI")

#: Intervening-task count treated as "no affinity at all".
_FRESH = 10 ** 9


@dataclasses.dataclass(frozen=True)
class QueueingConfig:
    """Parameters of the affinity-queueing system."""

    n_processors: int = 4
    n_tasks: int = 8
    #: mean useful service per run interval (exponential), seconds
    mean_service_s: float = 0.010
    #: mean think/blocked time between runs (exponential), seconds
    mean_think_s: float = 0.010
    #: cache lines a task's footprint occupies
    footprint_lines: float = 1500.0
    #: fraction of a footprint surviving one intervening dispatch
    survival: float = 0.5
    policy: str = "FCFS"

    def __post_init__(self) -> None:
        if self.n_processors < 1 or self.n_tasks < 1:
            raise ValueError("need at least one processor and one task")
        if self.mean_service_s <= 0 or self.mean_think_s <= 0:
            raise ValueError("service and think times must be positive")
        if self.footprint_lines < 0:
            raise ValueError("footprint must be non-negative")
        if not 0.0 <= self.survival < 1.0:
            raise ValueError("survival must be in [0, 1)")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; one of {POLICIES}")


@dataclasses.dataclass
class QueueingStats:
    """Outcome of one queueing-model run."""

    completions: int = 0
    total_wait_s: float = 0.0
    total_reload_s: float = 0.0
    total_service_s: float = 0.0
    affine_dispatches: int = 0
    dispatches: int = 0

    @property
    def mean_cycle_s(self) -> float:
        """Mean wait + reload + service per run interval."""
        if not self.completions:
            return 0.0
        return (
            self.total_wait_s + self.total_reload_s + self.total_service_s
        ) / self.completions

    @property
    def pct_affinity(self) -> float:
        """Percent of dispatches landing on the task's last processor."""
        return 100.0 * self.affine_dispatches / self.dispatches if self.dispatches else 0.0


class _Task:
    __slots__ = ("tid", "last_processor", "ready_since")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.last_processor: typing.Optional[int] = None
        self.ready_since = 0.0


class AffinityQueueingModel:
    """Discrete-event evaluation of the S&L queueing system."""

    def __init__(
        self,
        config: QueueingConfig,
        machine: MachineSpec = SEQUENT_SYMMETRY,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.machine = machine
        self.sim = Simulator(seed=seed)
        self._rng = RngRegistry(seed).stream("queueing")
        self.stats = QueueingStats()
        self._tasks = [_Task(i) for i in range(config.n_tasks)]
        self._ready: typing.List[_Task] = []
        self._busy: typing.Dict[int, _Task] = {}
        # Per-processor dispatch counter and the counter value at each
        # task's last departure from that processor; the difference is
        # the intervening-dispatch count j.
        self._dispatch_counter = [0] * config.n_processors
        self._marks: typing.Dict[typing.Tuple[int, int], int] = {}
        if config.policy == "FP":
            self._binding = {
                task.tid: task.tid % config.n_processors for task in self._tasks
            }

    # ------------------------------------------------------------------ #

    def run(self, n_completions: int) -> QueueingStats:
        """Simulate until ``n_completions`` run intervals finish."""
        if n_completions < 1:
            raise ValueError("need at least one completion")
        self._target = n_completions
        for task in self._tasks:
            self.sim.schedule(
                self._rng.expovariate(1.0 / self.config.mean_think_s),
                lambda t=task: self._becomes_ready(t),
            )
        self.sim.run()
        return self.stats

    # ------------------------------------------------------------------ #

    def _intervening(self, task: _Task, processor: int) -> int:
        mark = self._marks.get((task.tid, processor))
        if mark is None:
            return _FRESH
        return self._dispatch_counter[processor] - mark

    def _reload_s(self, task: _Task, processor: int) -> float:
        j = self._intervening(task, processor)
        if j >= _FRESH:
            surviving = 0.0
        else:
            surviving = self.config.survival ** j
        lost = self.config.footprint_lines * (1.0 - surviving)
        return lost * self.machine.miss_time_s

    def _free_processors(self) -> typing.List[int]:
        return [
            cpu for cpu in range(self.config.n_processors) if cpu not in self._busy
        ]

    def _becomes_ready(self, task: _Task) -> None:
        task.ready_since = self.sim.now
        self._ready.append(task)
        self._try_dispatch()

    def _try_dispatch(self) -> None:
        while self._ready:
            free = self._free_processors()
            if not free:
                return
            pair = self._choose_pair(free)
            if pair is None:
                return
            task, processor = pair
            self._ready.remove(task)
            self._dispatch(task, processor)

    def _choose_pair(
        self, free: typing.List[int]
    ) -> typing.Optional[typing.Tuple["_Task", int]]:
        """Pick the (queued task, free processor) pair per the discipline."""
        policy = self.config.policy
        if policy == "FCFS":
            return self._ready[0], free[0]
        if policy == "FP":
            for task in self._ready:  # earliest task whose processor is free
                bound = self._binding[task.tid]
                if bound in free:
                    return task, bound
            return None
        if policy == "LP":
            for task in self._ready:  # earliest task with its last cpu free
                if task.last_processor in free:
                    return task, task.last_processor
            return self._ready[0], free[0]
        # MI: globally minimal intervening count; ties to earliest task.
        best: typing.Optional[typing.Tuple[int, int, "_Task", int]] = None
        for position, task in enumerate(self._ready):
            for cpu in free:
                key = (self._intervening(task, cpu), position)
                if best is None or key < (best[0], best[1]):
                    best = (key[0], key[1], task, cpu)
        assert best is not None
        return best[2], best[3]

    def _dispatch(self, task: _Task, processor: int) -> None:
        self.stats.dispatches += 1
        if task.last_processor == processor:
            self.stats.affine_dispatches += 1
        wait = self.sim.now - task.ready_since
        reload = self._reload_s(task, processor)
        service = self._rng.expovariate(1.0 / self.config.mean_service_s)
        self.stats.total_wait_s += wait
        self.stats.total_reload_s += reload
        self.stats.total_service_s += service
        self._busy[processor] = task
        self._dispatch_counter[processor] += 1
        self.sim.schedule(
            reload + service, lambda: self._completes(task, processor)
        )

    def _completes(self, task: _Task, processor: int) -> None:
        del self._busy[processor]
        task.last_processor = processor
        self._marks[(task.tid, processor)] = self._dispatch_counter[processor]
        self.stats.completions += 1
        if self.stats.completions >= self._target:
            self.sim.stop()
            return
        self.sim.schedule(
            self._rng.expovariate(1.0 / self.config.mean_think_s),
            lambda: self._becomes_ready(task),
        )
        self._try_dispatch()


def compare_disciplines(
    base: QueueingConfig,
    n_completions: int = 20000,
    seed: int = 0,
) -> typing.Dict[str, QueueingStats]:
    """Run every discipline on the same configuration."""
    results = {}
    for policy in POLICIES:
        config = dataclasses.replace(base, policy=policy)
        model = AffinityQueueingModel(config, seed=seed)
        results[policy] = model.run(n_completions)
    return results
