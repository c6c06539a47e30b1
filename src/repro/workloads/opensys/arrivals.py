"""Stochastic arrival processes for open-system scenarios.

Each process turns a seeded :class:`random.Random` stream into a sorted
list of arrival times over a horizon.  Two properties are contractual:

* **Determinism** — the times are a pure function of the rng stream and
  the horizon; scenario instantiation draws from a named
  :class:`~repro.engine.rng.RngRegistry` substream, so serial and
  parallel sweeps see identical workloads.
* **Prefix stability** — draws are strictly sequential with no
  look-ahead, so ``times(rng, h1)`` is a prefix of ``times(rng', h2)``
  for ``h1 <= h2`` (same seed).  This is what makes horizon extension
  and arrival-list chunking bit-compatible, and the property tests
  enforce it.

The utilization targeting follows the open-queue identity the Narrator
generator uses (``rate = utilization x servers / mean service``): the
offered load of a Poisson stream of jobs with mean total work ``W`` on
``P`` processors is ``rate x W / P``.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import random
import typing


class ArrivalProcess(abc.ABC):
    """A recipe for drawing job arrival times from an rng stream."""

    @abc.abstractmethod
    def times(self, rng: random.Random, horizon_s: float) -> typing.List[float]:
        """Arrival times in ``[0, horizon_s)``, strictly increasing."""

    @staticmethod
    def _check_horizon(horizon_s: float) -> None:
        if not horizon_s > 0 or math.isinf(horizon_s):
            raise ValueError("horizon must be positive and finite")


@dataclasses.dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant ``rate_per_s``."""

    rate_per_s: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")

    @classmethod
    def for_utilization(
        cls, target: float, mean_work_s: float, n_processors: int
    ) -> "PoissonArrivals":
        """Rate that offers ``target`` utilization of ``n_processors``.

        ``target`` is the offered load fraction (0, 1]; ``mean_work_s``
        the mean *total* processor-seconds per job.
        """
        if not 0 < target <= 1:
            raise ValueError("target utilization must be in (0, 1]")
        if mean_work_s <= 0 or n_processors <= 0:
            raise ValueError("mean work and processor count must be positive")
        return cls(rate_per_s=target * n_processors / mean_work_s)

    def times(self, rng: random.Random, horizon_s: float) -> typing.List[float]:
        self._check_horizon(horizon_s)
        out: typing.List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(self.rate_per_s)
            if t >= horizon_s:
                return out
            out.append(t)


@dataclasses.dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On/off modulated Poisson arrivals (a two-state MMPP).

    The process alternates between a *burst* state arriving at
    ``burst_rate_per_s`` and an *idle* state at ``idle_rate_per_s``
    (0 allowed); state residence times are exponential with the given
    means.  Thanks to memorylessness, the inter-arrival clock restarts
    cleanly at each state boundary.
    """

    burst_rate_per_s: float
    idle_rate_per_s: float
    mean_burst_s: float
    mean_idle_s: float

    def __post_init__(self) -> None:
        if self.burst_rate_per_s <= 0:
            raise ValueError("burst rate must be positive")
        if self.idle_rate_per_s < 0:
            raise ValueError("idle rate must be non-negative")
        if self.mean_burst_s <= 0 or self.mean_idle_s <= 0:
            raise ValueError("state residence means must be positive")

    def times(self, rng: random.Random, horizon_s: float) -> typing.List[float]:
        self._check_horizon(horizon_s)
        out: typing.List[float] = []
        t = 0.0
        in_burst = True
        seg_end = rng.expovariate(1.0 / self.mean_burst_s)
        while t < horizon_s:
            rate = self.burst_rate_per_s if in_burst else self.idle_rate_per_s
            dt = rng.expovariate(rate) if rate > 0 else math.inf
            if t + dt >= seg_end:
                t = seg_end
                in_burst = not in_burst
                mean = self.mean_burst_s if in_burst else self.mean_idle_s
                seg_end = t + rng.expovariate(1.0 / mean)
                continue
            t += dt
            if t >= horizon_s:
                break
            out.append(t)
        return out


@dataclasses.dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal rate curve, sampled by thinning.

    ``rate(t) = base_rate_per_s * (1 + amplitude * sin(2 pi t / period_s))``.
    Candidates are drawn at the peak rate and accepted with probability
    ``rate(t) / peak`` — the standard thinning construction for an
    inhomogeneous Poisson process, which keeps draws sequential (so the
    prefix property holds).
    """

    base_rate_per_s: float
    amplitude: float
    period_s: float

    def __post_init__(self) -> None:
        if self.base_rate_per_s <= 0:
            raise ValueError("base rate must be positive")
        if not 0 <= self.amplitude <= 1:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        return self.base_rate_per_s * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period_s)
        )

    def times(self, rng: random.Random, horizon_s: float) -> typing.List[float]:
        self._check_horizon(horizon_s)
        peak = self.base_rate_per_s * (1.0 + self.amplitude)
        out: typing.List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= horizon_s:
                return out
            if rng.random() * peak <= self.rate_at(t):
                out.append(t)
