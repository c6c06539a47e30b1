"""A simulated-cache drop-in for the analytic footprint model.

The scheduling simulations price cache reloads with the analytic
:class:`~repro.machine.footprint.FootprintModel`.  This module provides
the high-fidelity alternative: a :class:`SimulatedCacheFootprint` keeps a
real set-associative cache per processor and *plays each task's actual
reference stream* through it for the duration of every stint.  Reload
penalties then come from counted lines rather than survival formulas.

It exposes the same ``note_run`` / ``reload_penalty`` /
``flush_processor`` surface as the analytic model, so a
:class:`~repro.core.system.SchedulingSystem` can run against either —
which is how the repository cross-validates its central approximation
end to end
(``tests/core/test_oracle_validation.py`` and
``benchmarks/bench_oracle_validation.py``).

Cost: simulation is at touch granularity, so use a generous fidelity
``scale`` (the default 64 keeps a ~100 processor-second workload in the
seconds range) and scaled-down workloads.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.apps.reference import (
    BlockReader,
    ReferenceGenerator,
    ReferenceSpec,
    reduced_machine,
)
from repro.engine.rng import RngRegistry
from repro.machine.batching import play
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.machine.processor import Processor


@dataclasses.dataclass
class _TaskState:
    processor: typing.Optional[int] = None
    footprint: int = 0  # reduced lines held at last departure


class SimulatedCacheFootprint:
    """Per-processor cache simulation behind the footprint-model interface.

    Args:
        reference_specs: reference model per job name (task keys are
            ``(job name, worker index)``).
        machine: the base machine being modelled.
        scale: fidelity reduction (see :func:`reduced_machine`); penalties
            in seconds are scale-invariant.
        seed: master seed for the per-task reference streams.
        backend: engine name for both the per-processor cache simulators
            and the reference-stream generators
            (None = numpy when it imports, else scalar).
    """

    def __init__(
        self,
        reference_specs: typing.Mapping[str, ReferenceSpec],
        machine: MachineSpec = SEQUENT_SYMMETRY,
        scale: int = 64,
        seed: int = 0,
        backend: typing.Optional[str] = None,
    ) -> None:
        self.spec = machine
        self.scale = scale
        self.backend = backend
        self.reduced = reduced_machine(machine, scale)
        self._reference_specs = {
            name: spec.reduced(scale) for name, spec in reference_specs.items()
        }
        self._rng = RngRegistry(seed)
        self._processors: typing.Dict[int, Processor] = {}
        self._readers: typing.Dict[typing.Hashable, BlockReader] = {}
        self._tasks: typing.Dict[typing.Hashable, _TaskState] = {}
        #: total touches simulated (for cost introspection)
        self.touches_simulated = 0

    # -- the FootprintModel interface ---------------------------------- #

    def reload_penalty(
        self, task: typing.Hashable, processor: int
    ) -> typing.Tuple[float, bool]:
        """Penalty (seconds) to reload what ``task`` lost since departure."""
        state = self._tasks.get(task)
        if state is None:
            return 0.0, False
        had_affinity = state.processor == processor
        surviving = self._footprint(task, processor)
        lost = max(0, state.footprint - surviving)
        return lost * self.reduced.miss_time_s, had_affinity

    def note_run(
        self,
        task: typing.Hashable,
        processor: int,
        duration: float,
        curve: object,  # unused: the real stream replaces the curve
    ) -> None:
        """Play ``task``'s reference stream on ``processor`` for ``duration`` s."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        del curve
        ref = self._spec_for(task)
        proc = self._processors.get(processor)
        if proc is None:
            proc = Processor(processor, self.reduced, backend=self.backend)
            self._processors[processor] = proc
        reader = self._readers.get(task)
        if reader is None:
            reader = BlockReader(
                ReferenceGenerator(
                    ref, self._rng.stream(str(task)), backend=self.backend
                )
            )
            self._readers[task] = reader
        # The stint stops where ``elapsed += cost`` first reaches the
        # duration, as the touch-by-touch loop did: the budget left is
        # recomputed as ``duration - elapsed`` after every chunk.
        played, _, _ = play(
            proc, task, reader, duration, ref.refs_per_touch, from_spent=True
        )
        self.touches_simulated += played
        state = self._tasks.setdefault(task, _TaskState())
        state.processor = processor
        state.footprint = proc.cache.footprint(task)

    def surviving_footprint(self, task: typing.Hashable, processor: int) -> float:
        """Reduced lines of ``task`` still resident on ``processor``."""
        return float(self._footprint(task, processor))

    def flush_processor(self, processor: int) -> float:
        """Invalidate ``processor``'s cache (a CPU failure).

        Tasks keep their residence records (returning there still counts
        as affinity) but the content is gone, so the next dispatch pays a
        full reload.  Returns the number of lines dropped.
        """
        proc = self._processors.get(processor)
        if proc is None:
            return 0.0
        return float(proc.flush_cache())

    # ------------------------------------------------------------------ #

    def _footprint(self, task: typing.Hashable, processor: int) -> int:
        proc = self._processors.get(processor)
        return proc.cache.footprint(task) if proc is not None else 0

    def _spec_for(self, task: typing.Hashable) -> ReferenceSpec:
        job_name = task[0] if isinstance(task, tuple) else str(task)
        # Job instances are named APP or APP-N; specs are keyed by job name
        # first, then by the application prefix.
        if job_name in self._reference_specs:
            return self._reference_specs[job_name]
        app = str(job_name).split("-")[0]
        if app in self._reference_specs:
            return self._reference_specs[app]
        raise KeyError(f"no reference spec for task {task!r}")
