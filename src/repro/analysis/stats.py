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

from scipy import stats as scipy_stats

__all__ = ["SampleSummary", "summarize_samples", "confidence_interval"]


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
        Bounds of the confidence interval of the mean.
    confidence:
        Confidence level of the interval (default 0.95).
    """

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95

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


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval of the mean of ``values``.

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
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return (mean - t_crit * sem, mean + t_crit * sem)


def summarize_samples(values: Sequence[float], confidence: float = 0.95) -> SampleSummary:
    """Build a :class:`SampleSummary` from raw observations."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    else:
        std = 0.0
    low, high = confidence_interval(values, confidence)
    return SampleSummary(
        count=n, mean=mean, std=std, ci_low=low, ci_high=high, confidence=confidence
    )
