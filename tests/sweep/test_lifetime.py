"""A run that is over frees itself by reference count.

With the cyclic collector off, none of a run's scheduling objects may
outlive ``run_cell``, nor a ``SchedulingSystem.run`` that raises.  A
back-reference left in place would keep the whole run (its graphs'
per-thread lists included) alive until a full collection, so peak
memory would follow the collector's timing instead of the code.
"""

import collections
import gc
import os
import typing
import weakref

import pytest

from repro.core.allocator import Allocator
from repro.core.policies import DYN_AFF, DYNAMIC
from repro.core.system import SchedulingSystem
from repro.engine.simulator import Simulator
from repro.obs import Tracer
from repro.sweep.cells import run_cell
from repro.sweep.spec import SweepSpec, mix_cell
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job
from repro.threads.workers import WorkerTask
from tests.core.helpers import chain_job, flat_job

SAMPLE_SWF = os.path.join(os.path.dirname(__file__), "..", "data", "sample.swf")
TRACKED = (SchedulingSystem, Allocator, Simulator, Job, WorkerTask, ThreadGraph)


class Outcome(typing.NamedTuple):
    #: tracked class name -> instances built
    built: typing.Dict[str, int]
    #: tracked class name -> instances still alive afterwards
    alive: typing.Dict[str, int]
    #: unreachable objects gc.collect() then found
    collectable: int


def collector_off(monkeypatch, run: typing.Callable[[], object]) -> Outcome:
    """Call ``run()`` with the cyclic collector off; see what it left."""
    built: typing.List[typing.Tuple[str, weakref.ref]] = []
    for cls in TRACKED:
        def recording_init(obj, *args, _init=cls.__init__, **kwargs):
            _init(obj, *args, **kwargs)
            built.append((type(obj).__name__, weakref.ref(obj)))

        monkeypatch.setattr(cls, "__init__", recording_init)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        alive = collections.Counter(name for name, ref in built if ref() is not None)
        collectable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return Outcome(dict(collections.Counter(name for name, _ in built)),
                   dict(alive), collectable)


def assert_freed(outcome: Outcome) -> None:
    assert set(outcome.built) == {cls.__name__ for cls in TRACKED}
    assert outcome.alive == {}


class TestRunCellLeavesNothing:
    @pytest.mark.parametrize("policy", ["Dyn-Aff", "Equipartition", "TimeSharing-Aff"])
    def test_mix_cell(self, monkeypatch, policy):
        outcome = collector_off(monkeypatch, lambda: run_cell(mix_cell(5, policy, 0)))
        assert_freed(outcome)
        assert outcome.collectable == 0

    @pytest.mark.parametrize(
        "scenario, policy",
        [("failures", "Dyn-Aff-Delay"), ("cancellations", "Equipartition")],
    )
    def test_traced_opensys_cell(self, monkeypatch, scenario, policy):
        (cell,) = SweepSpec(
            name="lifetime", kind="opensys", lite=True, scenarios=(scenario,),
            policies=(policy,), n_processors=8,
        ).expand()
        tracer = Tracer()
        outcome = collector_off(monkeypatch, lambda: run_cell(
            cell, collect_metrics=True, collect_profile=True, tracer=tracer,
        ))
        assert tracer.records
        assert_freed(outcome)
        assert outcome.collectable == 0

    def test_swf_cell(self, monkeypatch):
        (cell,) = SweepSpec(
            name="lifetime", kind="swf", swf=SAMPLE_SWF,
            policies=("Dyn-Aff",),
        ).expand()
        outcome = collector_off(monkeypatch, lambda: run_cell(cell))
        assert_freed(outcome)
        assert outcome.collectable == 0

    def test_table1_cell(self, monkeypatch):
        (cell,) = SweepSpec(
            name="lifetime", kind="table1", apps=("MVA",), quanta=(0.025,),
            scale=64,
        ).expand()
        # The first call may import a cache engine, and an import can
        # leave garbage of its own; measure the second.
        run_cell(cell)
        outcome = collector_off(monkeypatch, lambda: run_cell(cell))
        assert outcome.built == {}  # no scheduler runs in a Table 1 cell
        assert outcome.collectable == 0


class TestRaisingRun:
    def test_stalled_run_frees_itself(self, monkeypatch):
        """With every processor failed the job never runs: ``run`` raises,
        and the raise still frees the run."""
        messages = []

        def stalled():
            system = SchedulingSystem([chain_job("J", 3, 1.0)], DYNAMIC, n_processors=1)
            system.sim.at(0.0, lambda: system.fail_processor(0), priority=0)
            try:
                system.run()
            except RuntimeError as error:
                messages.append(str(error))

        outcome = collector_off(monkeypatch, stalled)
        assert messages and "stalled" in messages[0]
        assert_freed(outcome)
        assert outcome.collectable == 0


    def test_run_raising_mid_flight_frees_itself(self, monkeypatch):
        """An action that raises while workers run leaves their pending
        completion events behind; the raise still frees the run."""
        raised = []

        def boom():
            raise ValueError("injected")

        def interrupted():
            system = SchedulingSystem([flat_job("J", 8, 1.0, workers=2)], DYNAMIC,
                                      n_processors=2)
            system.sim.at(0.5, boom)
            try:
                system.run()
            except ValueError:
                raised.append(any(
                    w.completion_handle is not None for w in system.jobs[0].workers
                ))

        outcome = collector_off(monkeypatch, interrupted)
        assert raised == [True]
        assert_freed(outcome)
        assert outcome.collectable == 0


class TestClosedRun:
    def run_system(self):
        system = SchedulingSystem(
            [flat_job("A", 8, 1.0, workers=2), flat_job("B", 8, 1.0, workers=2)],
            DYN_AFF, n_processors=2,
        )
        return system, system.run()

    def test_fields_stay_readable(self):
        system, result = self.run_system()
        assert sorted(result.jobs) == ["A", "B"]
        for job in system.jobs:
            assert repr(job).startswith(f"Job({job.name!r}")
            for worker in job.workers:
                assert worker.job is None
                assert worker.key == (job.name, worker.index)
                assert repr(worker).startswith(f"WorkerTask({job.name}#{worker.index}")
        assert all(proc.is_free for proc in system.allocator.procs)
        assert system.allocator.system is None
        assert len(system.sim.queue) == 0
        assert system.now == result.makespan

    def test_second_run_is_refused(self):
        system, _ = self.run_system()
        with pytest.raises(RuntimeError, match="run is over"):
            system.run()

    def test_paused_run_keeps_its_state(self):
        """``until`` pauses a run with jobs outstanding: nothing is cut."""
        system = SchedulingSystem([chain_job("SLOW", 100, 1.0)], DYNAMIC, n_processors=1)
        system.run(until=5.0)
        assert system.allocator.system is system
        assert all(w.job is system.jobs[0] for w in system.jobs[0].workers)
        assert len(system.sim.queue) == 1
