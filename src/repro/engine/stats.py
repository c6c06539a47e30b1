"""Sample statistics: streaming mean/variance and 95% confidence intervals.

Section 6 of the paper ran "enough replications of each experiment so
that the 95% confidence interval is within 1% of the point estimate of
the mean".  This reproduction runs a fixed replication count instead
(``-r``); every :class:`~repro.measure.runner.JobSummary` still carries
its response time's interval, so that target can be checked after the
fact.
"""

from __future__ import annotations

import dataclasses
import math

#: Two-sided Student-t critical values at 95% confidence, indexed by degrees
#: of freedom.  Entries beyond the table fall back to the normal quantile.
_T_TABLE_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}
_Z_95 = 1.960


def t_critical_95(dof: int) -> float:
    """Two-sided 95% Student-t critical value for ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if dof in _T_TABLE_95:
        return _T_TABLE_95[dof]
    lower = max(k for k in _T_TABLE_95 if k <= dof) if dof > 1 else 1
    if dof > 120:
        return _Z_95
    return _T_TABLE_95[lower]


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float = 0.95
    n: int = 0

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


class SampleStats:
    """Streaming mean/variance via Welford's algorithm."""

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Incorporate one observation."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    @property
    def n(self) -> int:
        """Number of observations."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 for n < 2)."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def confidence_interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """95% (only) Student-t confidence interval for the mean."""
        if confidence != 0.95:
            raise ValueError("only 95% confidence is tabulated")
        if self._n < 2:
            return ConfidenceInterval(self._mean, math.inf, n=self._n)
        half = t_critical_95(self._n - 1) * self.stddev / math.sqrt(self._n)
        return ConfidenceInterval(self._mean, half, n=self._n)

