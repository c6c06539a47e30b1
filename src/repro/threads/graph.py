"""Thread dependence graphs.

A :class:`ThreadGraph` is a DAG whose nodes are user-level threads (with a
service demand in processor-seconds on the base machine) and whose edges
are precedence constraints.  The graph tracks readiness incrementally so
the simulator can ask "which threads became runnable?" in O(out-degree)
per completion.

The module also computes the *parallelism profile* shown in the paper's
Figures 2-4: the percentage of elapsed time an application spends at each
level of physical parallelism when run in isolation on P processors, plus
total execution time and average processor demand.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import typing


@dataclasses.dataclass(frozen=True)
class ParallelismProfile:
    """Isolated-run characteristics (the content of Figures 2-4)."""

    #: fraction of elapsed time at each parallelism level, level -> fraction
    time_at_level: typing.Dict[int, float]
    #: total elapsed execution time (seconds)
    execution_time: float
    #: time-averaged processor demand
    average_demand: float
    #: number of processors the run was profiled on
    n_processors: int


class ThreadGraph:
    """A precedence DAG of user-level threads with readiness tracking.

    The graph is stored as parallel lists indexed by thread id, so the
    simulator's per-completion work is a few list reads:

    * ``service_times[tid]``: processor-seconds of work at base machine
      speed;
    * ``successors[tid]``: ids unblocked (partially) by its completion;
    * ``n_predecessors[tid]``: static in-degree;
    * ``phases[tid]``: optional label for grouping (e.g. GRAVITY's phase);
    * ``data_groups[tid]``: optional tag of the data the thread operates
      on; threads sharing a group benefit from running consecutively on
      one worker (see :mod:`repro.threads.data_affinity`).

    The lists are read-only outside this class, and so is
    ``n_completed``, the count of completed threads.  :meth:`add_thread`
    and :meth:`add_dependency` build any shape; :meth:`add_fan` and
    :meth:`add_join` build the fork and join steps of barrier-phased
    graphs in bulk.  ``forward`` records whether every edge so far runs
    from a lower thread id to a higher one: such a graph is acyclic by
    construction, thread ids being a topological order.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.service_times: typing.List[float] = []
        self.successors: typing.List[typing.List[int]] = []
        self.n_predecessors: typing.List[int] = []
        self.phases: typing.List[str] = []
        self.data_groups: typing.List[typing.Optional[int]] = []
        # readiness state, restored by reset()
        self._blocked_count: typing.List[int] = []
        self._completed: typing.List[bool] = []
        self.n_completed = 0
        #: every edge runs from a lower id to a higher one (see above)
        self.forward = True

    def add_thread(
        self,
        service_time: float,
        phase: str = "",
        data_group: typing.Optional[int] = None,
    ) -> int:
        """Add a thread with ``service_time`` processor-seconds of work."""
        _check_service(service_time)
        tid = len(self.service_times)
        self.service_times.append(service_time)
        self.successors.append([])
        self.n_predecessors.append(0)
        self.phases.append(phase)
        self.data_groups.append(data_group)
        self._blocked_count.append(0)
        self._completed.append(False)
        return tid

    def add_dependency(self, before: int, after: int) -> None:
        """Require ``before`` to complete before ``after`` may start."""
        if before == after:
            raise ValueError("a thread cannot depend on itself")
        self._check_tid(before)
        self._check_tid(after)
        if before > after:
            self.forward = False
        self.successors[before].append(after)
        self.n_predecessors[after] += 1
        self._blocked_count[after] += 1

    def add_fan(
        self,
        before: typing.Optional[int],
        services: typing.Sequence[float],
        phase: str = "",
        data_groups: typing.Optional[typing.Sequence[typing.Optional[int]]] = None,
    ) -> range:
        """Add one thread per entry of ``services``, each after ``before``.

        The same graph as an :meth:`add_thread` per service followed, when
        ``before`` is not None, by ``add_dependency(before, tid)`` for each.

        Returns:
            The new thread ids, in order.
        """
        invalid = [s for s in services if not 0.0 <= s < math.inf]
        if invalid:
            _check_service(invalid[0])
        n = len(services)
        if data_groups is None:
            data_groups = [None] * n
        elif len(data_groups) != n:
            raise ValueError(
                f"data_groups has {len(data_groups)} entries for {n} threads"
            )
        first = len(self.service_times)
        tids = range(first, first + n)
        if before is not None:
            self._check_tid(before)
            self.successors[before].extend(tids)
        in_degree = 0 if before is None else 1
        self.service_times.extend(services)
        self.successors.extend([[] for _ in tids])
        self.n_predecessors.extend([in_degree] * n)
        self.phases.extend([phase] * n)
        self.data_groups.extend(data_groups)
        self._blocked_count.extend([in_degree] * n)
        self._completed.extend([False] * n)
        return tids

    def add_join(
        self, before_ids: typing.Iterable[int], service: float = 0.0, phase: str = ""
    ) -> int:
        """Add one thread that runs after every thread in ``before_ids``.

        The same graph as :meth:`add_thread` followed by
        ``add_dependency(tid, join)`` for each ``tid`` in ``before_ids``.

        Returns:
            The join thread's id.
        """
        before_ids = list(before_ids)
        if before_ids:
            self._check_tid(min(before_ids))
            self._check_tid(max(before_ids))
        join = self.add_thread(service, phase=phase)
        successors = self.successors
        for tid in before_ids:
            successors[tid].append(join)
        self.n_predecessors[join] = self._blocked_count[join] = len(before_ids)
        return join

    def _check_tid(self, tid: int) -> None:
        if not 0 <= tid < len(self.service_times):
            raise IndexError(f"no such thread: {tid}")

    @property
    def n_threads(self) -> int:
        """Total number of threads."""
        return len(self.service_times)

    @property
    def all_done(self) -> bool:
        """True once every thread has completed."""
        return self.n_completed == len(self.service_times)

    def total_work(self) -> float:
        """Sum of all service times (processor-seconds)."""
        return sum(self.service_times)

    def initially_ready(self) -> typing.List[int]:
        """Threads with no predecessors, in id order."""
        return [tid for tid, n in enumerate(self.n_predecessors) if not n]

    def complete(self, tid: int) -> typing.List[int]:
        """Mark ``tid`` complete; returns threads that just became ready.

        Raises:
            IndexError: for a thread id outside the graph.
            RuntimeError: on double completion (a simulator bug).
        """
        completed = self._completed
        if not 0 <= tid < len(completed):
            raise IndexError(f"no such thread: {tid}")
        if completed[tid]:
            raise RuntimeError(f"thread {tid} completed twice")
        completed[tid] = True
        self.n_completed += 1
        blocked = self._blocked_count
        newly_ready = []
        for succ in self.successors[tid]:
            left = blocked[succ] - 1
            blocked[succ] = left
            if not left:
                newly_ready.append(succ)
        return newly_ready

    def reset(self) -> None:
        """Return the graph to its initial (nothing completed) state."""
        self.n_completed = 0
        self._completed = [False] * len(self.service_times)
        self._blocked_count = list(self.n_predecessors)

    def validate_acyclic(self) -> None:
        """Raise ValueError if the dependence graph has a cycle.

        A ``forward`` graph needs no check; any other takes the full
        O(V + E) pass.
        """
        if not self.forward:
            self._topological_order()

    def _topological_order(self) -> typing.List[int]:
        in_degree = list(self.n_predecessors)
        queue = [tid for tid, deg in enumerate(in_degree) if not deg]
        order: typing.List[int] = []
        successors = self.successors
        while queue:
            tid = queue.pop()
            order.append(tid)
            for succ in successors[tid]:
                left = in_degree[succ] - 1
                in_degree[succ] = left
                if not left:
                    queue.append(succ)
        if len(order) != len(in_degree):
            raise ValueError(f"dependence graph of {self.name!r} contains a cycle")
        return order

    def parallelism_profile(self, n_processors: int) -> ParallelismProfile:
        """Greedy list-schedule the graph on ``n_processors`` and profile it.

        This is how the paper characterizes each application (Figures 2-4):
        run in isolation on 16 processors and record the percentage of time
        spent at each level of physical parallelism, the total execution
        time, and the average processor demand.
        """
        if n_processors <= 0:
            raise ValueError("need at least one processor")
        self.reset()
        ready = list(self.initially_ready())
        running: typing.List[typing.Tuple[float, int]] = []  # (finish, tid)
        now = 0.0
        last_change = 0.0
        time_at_level: typing.Dict[int, float] = {}
        demand_integral = 0.0

        def record(until: float) -> None:
            nonlocal last_change, demand_integral
            span = until - last_change
            if span > 0:
                level = len(running)
                time_at_level[level] = time_at_level.get(level, 0.0) + span
                demand_integral += level * span
            last_change = until

        while ready or running:
            while ready and len(running) < n_processors:
                tid = ready.pop(0)
                heapq.heappush(running, (now + self.service_times[tid], tid))
            if not running:
                raise RuntimeError("deadlock: ready empty but graph not done")
            finish = running[0][0]
            # Record the interval up to the next completion at the level
            # that actually ran during it, then drain every thread that
            # finishes at that instant.
            record(finish)
            now = finish
            while running and running[0][0] == now:
                _, tid = heapq.heappop(running)
                ready.extend(self.complete(tid))
        self.reset()
        total = now if now > 0 else 1.0
        fractions = {lvl: t / total for lvl, t in time_at_level.items()}
        return ParallelismProfile(
            time_at_level=fractions,
            execution_time=now,
            average_demand=demand_integral / total,
            n_processors=n_processors,
        )

    def max_parallelism(self) -> int:
        """Maximum number of simultaneously runnable threads (greedy, unbounded)."""
        profile = self.parallelism_profile(self.n_threads or 1)
        return max(profile.time_at_level) if profile.time_at_level else 0

    def __repr__(self) -> str:
        return f"ThreadGraph({self.name!r}, threads={self.n_threads})"


def _check_service(service_time: float) -> None:
    """Reject a negative, infinite or NaN service time."""
    if not 0.0 <= service_time < math.inf:
        raise ValueError(
            f"service_time must be finite and non-negative, got {service_time!r}"
        )
