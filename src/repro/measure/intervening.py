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
from repro.apps.reference import BlockReader, ReferenceGenerator, reduced_machine
from repro.engine.rng import RngRegistry
from repro.machine.batching import batch_limit, worst_touch_cost
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.machine.processor import Processor


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
        #: generators (None = env var/default)
        self.backend = backend

    def measure(
        self,
        app: AppSpec,
        partner: AppSpec,
        q_s: float = 0.100,
        max_intervening: int = 4,
    ) -> InterveningResult:
        """Penalty per switch for 0..``max_intervening`` intervening tasks."""
        if max_intervening < 1:
            raise ValueError("need at least one intervening count")
        baseline = self._run(app, partner, q_s, n_intervening=0)
        penalties: typing.Dict[int, float] = {0: 0.0}
        for k in range(1, max_intervening + 1):
            rt, switches = self._run(app, partner, q_s, n_intervening=k)
            penalties[k] = max(0.0, (rt - baseline[0]) / max(1, switches))
        flushed_rt, flushed_switches = self._run(
            app, partner, q_s, n_intervening=-1
        )
        p_na = max(0.0, (flushed_rt - baseline[0]) / max(1, flushed_switches))
        return InterveningResult(
            app=app.name, q_s=q_s, penalty_by_k=penalties, p_na_s=p_na
        )

    def _run(
        self,
        app: AppSpec,
        partner: AppSpec,
        q_s: float,
        n_intervening: int,
    ) -> typing.Tuple[float, int]:
        """One run; ``n_intervening = -1`` means flush (the P^NA reference)."""
        rng = RngRegistry(self.seed).spawn(f"{app.name}/{q_s:g}")
        app_ref = app.reference.reduced(self.scale)
        partner_ref = partner.reference.reduced(self.scale)
        per_touch = app_ref.refs_per_touch * self.machine.hit_time_s
        total_seconds = max(2.0, self.n_switches_target * q_s)
        n_touches = int(total_seconds / per_touch)
        reader = BlockReader(
            ReferenceGenerator(app_ref, rng.stream("app"), backend=self.backend),
            total=n_touches,
        )
        intervening = [
            BlockReader(
                ReferenceGenerator(
                    partner_ref, rng.stream(f"partner{i}"), backend=self.backend
                )
            )
            for i in range(max(0, n_intervening))
        ]
        proc = Processor(0, self.machine, backend=self.backend)
        # Chunked driver; see repro.machine.batching for why chunk sizing
        # keeps rescheduling points identical to the touch-by-touch loop.
        app_worst = worst_touch_cost(
            self.machine.miss_time_s, self.machine.hit_time_s, app_ref.refs_per_touch
        )
        partner_worst = worst_touch_cost(
            self.machine.miss_time_s,
            self.machine.hit_time_s,
            partner_ref.refs_per_touch,
        )
        response_time = 0.0
        slice_left = q_s
        switches = 0
        remaining = n_touches
        while remaining:
            n = min(remaining, batch_limit(slice_left, app_worst))
            cost = proc.touch_batch("measured", reader.take(n), app_ref.refs_per_touch)
            response_time += cost
            slice_left -= cost
            remaining -= n
            if slice_left <= 0.0:
                switches += 1
                slice_left = q_s
                if n_intervening < 0:
                    proc.flush_cache()
                else:
                    for index, partner_reader in enumerate(intervening):
                        budget = q_s
                        while budget > 0.0:
                            k = batch_limit(budget, partner_worst)
                            budget -= proc.touch_batch(
                                f"partner{index}",
                                partner_reader.take(k),
                                partner_ref.refs_per_touch,
                            )
        return response_time, switches
