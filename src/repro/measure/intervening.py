"""Penalty vs number of intervening tasks: measuring S&L's survival ratio.

The Squillante & Lazowska model (implemented in
:mod:`repro.model.affinity_queueing`) parameterizes cache decay with a
single survival ratio: a footprint shrinks by a factor of ``sigma`` per
intervening dispatch, so the reload after ``j`` intervening tasks is
``footprint x (1 - sigma^j)``.  The paper argues with their *assumed*
values ("they assume that a task returning to a processor will find
useful data remaining in the cache even after many intervening tasks");
this experiment *measures* sigma on the cache simulator instead.

Extension of the Section 4 experiment: the multiprog regime runs ``k``
distinct intervening tasks (each for duration Q) between dispatches of
the measured program, for ``k = 0, 1, 2, ...``.  ``k = 0`` is the
stationary regime; large ``k`` approaches the migrating (full flush)
regime.  Fitting ``P^A(k) = P^NA x (1 - sigma^k)`` yields the measured
survival ratio — which can then be compared with the value that makes
affinity "pronounced" in the queueing model.
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
from repro.measure.penalty import check_quantum


@dataclasses.dataclass(frozen=True)
class InterveningResult:
    """Penalties as a function of the intervening-task count."""

    app: str
    q_s: float
    #: per-switch penalty (seconds) indexed by intervening count k
    penalty_by_k: typing.Dict[int, float]
    #: the k = infinity reference: full flush (P^NA)
    p_na_s: float

    def survival_after(self, k: int) -> float:
        """Estimated fraction of the footprint surviving ``k`` interveners."""
        if self.p_na_s <= 0:
            return 1.0
        return max(0.0, 1.0 - self.penalty_by_k[k] / self.p_na_s)

    def fitted_sigma(self) -> float:
        """Least-squares fit of ``survival(k) = sigma^k`` on k >= 1.

        Fits in log space over the ks whose survival is positive; returns
        0.0 if nothing survives even one intervener.
        """
        points = [
            (k, self.survival_after(k))
            for k in sorted(self.penalty_by_k)
            if k >= 1 and self.survival_after(k) > 0.0
        ]
        if not points:
            return 0.0
        # ln(survival) = k ln(sigma): slope through the origin.
        numerator = sum(k * math.log(s) for k, s in points)
        denominator = sum(k * k for k, _ in points)
        return math.exp(numerator / denominator)


class InterveningExperiment:
    """Measure P^A as a function of how many tasks intervene."""

    def __init__(
        self,
        machine: MachineSpec = SEQUENT_SYMMETRY,
        scale: int = 16,
        n_switches_target: int = 30,
        seed: int = 0,
        backend: typing.Optional[str] = None,
    ) -> None:
        self.machine = reduced_machine(machine, scale)
        self.scale = scale
        self.n_switches_target = n_switches_target
        self.seed = seed
        #: engine for the regime processors' caches *and* the reference
        #: generators (None = numpy when it imports, else scalar)
        self.backend = backend

    def measure(
        self,
        app: AppSpec,
        partner: AppSpec,
        q_s: float = 0.100,
        max_intervening: int = 4,
    ) -> InterveningResult:
        """Penalty per switch for 0..``max_intervening`` intervening tasks."""
        check_quantum(q_s)
        if max_intervening < 1:
            raise ValueError("need at least one intervening count")
        # Every run replays the identical measured touch sequence.
        stream = self._measured_stream(app, q_s)

        def run(k: int) -> typing.Tuple[float, int]:
            return self._run(app, partner, q_s, n_intervening=k, stream=stream)

        baseline = run(0)
        penalties: typing.Dict[int, float] = {0: 0.0}
        for k in range(1, max_intervening + 1):
            rt, switches = run(k)
            penalties[k] = max(0.0, (rt - baseline[0]) / max(1, switches))
        flushed_rt, flushed_switches = run(-1)
        p_na = max(0.0, (flushed_rt - baseline[0]) / max(1, flushed_switches))
        return InterveningResult(
            app=app.name, q_s=q_s, penalty_by_k=penalties, p_na_s=p_na
        )

    def _rng(self, app: AppSpec, q_s: float) -> RngRegistry:
        return RngRegistry(self.seed).spawn(f"{app.name}/{q_s:g}")

    def _measured_stream(self, app: AppSpec, q_s: float) -> typing.Sequence[int]:
        """The measured program's touches, drawn once per measurement."""
        app_ref = app.reference.reduced(self.scale)
        per_touch = app_ref.refs_per_touch * self.machine.hit_time_s
        total_seconds = max(2.0, self.n_switches_target * q_s)
        gen = ReferenceGenerator(
            app_ref, self._rng(app, q_s).stream("app"), backend=self.backend
        )
        return read_stream(gen, int(total_seconds / per_touch))

    def _run(
        self,
        app: AppSpec,
        partner: AppSpec,
        q_s: float,
        n_intervening: int,
        stream: typing.Sequence[int],
    ) -> typing.Tuple[float, int]:
        """One run; ``n_intervening = -1`` means flush (the P^NA reference).

        ``stream`` is the stored measured sequence
        (:meth:`_measured_stream`).
        """
        rng = self._rng(app, q_s)
        app_ref = app.reference.reduced(self.scale)
        partner_ref = partner.reference.reduced(self.scale)
        intervening = [
            BlockReader(
                ReferenceGenerator(
                    partner_ref, rng.stream(f"partner{i}"), backend=self.backend
                )
            )
            for i in range(max(0, n_intervening))
        ]
        proc = Processor(0, self.machine, backend=self.backend)

        def on_switch() -> None:
            if n_intervening < 0:
                proc.flush_cache()
            for index, partner_reader in enumerate(intervening):
                play(
                    proc, f"partner{index}", partner_reader, q_s,
                    partner_ref.refs_per_touch,
                )

        return play_slices(
            proc, BlockReader.over(stream), q_s, app_ref.refs_per_touch,
            len(stream), on_switch,
        )
