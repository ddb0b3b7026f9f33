"""Sample statistics: means, confidence intervals, batch summaries.

The paper reports that "each data point in our experiments is within 1% of
the mean or better, using 95% confidence intervals".  The helpers here
compute exactly that quantity (the relative half-width of the 95 % CI) so
that experiment drivers can report how tight their — usually smaller —
sample sets are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["SampleSummary", "summarize_samples", "confidence_interval"]

#: scipy 1.17.1's float64 ``t.ppf(0.975, df)``, frozen as ``float.hex`` so
#: that no scipy release moves an export, at exactly the degrees of freedom
#: the experiment scales reach: Figure 2's ``samples_per_point - 1`` and
#: Figure 3's ``messages_per_rate_point - 1``.
_T_975 = {
    1: float.fromhex("0x1.96993aacc4d1ep+3"),
    3: float.fromhex("0x1.975a66893c1a7p+1"),
    11: float.fromhex("0x1.19b9e1b8c996cp+1"),
    39: float.fromhex("0x1.02e7893bbcad5p+1"),
    119: float.fromhex("0x1.fae7d3543239fp+0"),
    399: float.fromhex("0x1.f74702e24b3d3p+0"),
}


def _t_975(df: int) -> float:
    """The 97.5 % quantile of Student's t with ``df`` degrees of freedom."""
    if df in _T_975:
        return _T_975[df]
    # Only a sample size that no configuration uses reaches scipy.
    from scipy import stats

    return float(stats.t.ppf(0.975, df=df))


@dataclass(frozen=True, slots=True)
class SampleSummary:
    """Summary statistics of one sample of observations.

    Attributes
    ----------
    count:
        Number of observations.
    mean:
        Sample mean.
    std:
        Sample standard deviation (ddof=1; 0 for a single observation).
    ci_low, ci_high:
        Bounds of the 95 % confidence interval of the mean.
    """

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """CI half-width divided by the mean (the paper's "within 1 %")."""
        if self.mean == 0:
            return 0.0
        return abs(self.half_width / self.mean)

    def as_dict(self) -> dict[str, float | int]:
        """Plain-dict view for report tables."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "rel_half_width": self.relative_half_width,
        }


def confidence_interval(values: Sequence[float]) -> tuple[float, float]:
    """95 % Student-t confidence interval of the mean of ``values``.

    For a single observation the interval degenerates to the observation
    itself (there is no dispersion information).
    """
    if not values:
        raise ValueError("cannot compute a confidence interval of no observations")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return (mean, mean)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    t_crit = _t_975(n - 1)
    return (mean - t_crit * sem, mean + t_crit * sem)


def summarize_samples(values: Sequence[float]) -> SampleSummary:
    """Build a :class:`SampleSummary` from raw observations."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    else:
        std = 0.0
    low, high = confidence_interval(values)
    return SampleSummary(count=n, mean=mean, std=std, ci_low=low, ci_high=high)
