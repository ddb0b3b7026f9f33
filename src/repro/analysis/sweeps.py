"""Parameter-sweep result containers.

Each figure of the paper is a sweep over one parameter (number of
destinations, arrival rate) producing one latency summary per parameter
value and per series (network size, multicast degree).  The classes here
hold those results in a structure that the report formatter and the
benchmark harnesses can both consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .stats import SampleSummary, summarize_samples

__all__ = [
    "SweepPoint",
    "SweepSeries",
    "SweepResult",
    "sweep_result_from_points",
]


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One (x, summary) point of a sweep."""

    x: float
    summary: SampleSummary

    @property
    def mean(self) -> float:
        """Mean observation at this point."""
        return self.summary.mean

    def as_dict(self) -> dict:
        """JSON-serialisable view: the x coordinate plus the summary."""
        return {"x": self.x, **self.summary.as_dict()}


@dataclass
class SweepSeries:
    """One labelled curve of a figure."""

    label: str
    points: list[SweepPoint] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, x: float, values: Sequence[float]) -> SweepPoint:
        """Summarise ``values`` and append the point at ``x``."""
        point = SweepPoint(x=x, summary=summarize_samples(list(values)))
        self.points.append(point)
        return point

    def xs(self) -> list[float]:
        """X coordinates in insertion order."""
        return [point.x for point in self.points]

    def means(self) -> list[float]:
        """Mean values in insertion order."""
        return [point.mean for point in self.points]

    def spread(self) -> float:
        """Max minus min of the means (used to check Figure 2's flatness)."""
        values = self.means()
        if not values:
            return 0.0
        return max(values) - min(values)

    def max_mean(self) -> float:
        """Largest mean over the series."""
        return max(self.means()) if self.points else float("nan")

    def as_dict(self) -> dict:
        """JSON-serialisable view of the series."""
        return {
            "label": self.label,
            "metadata": dict(self.metadata),
            "points": [point.as_dict() for point in self.points],
        }


@dataclass
class SweepResult:
    """A complete figure: several series over a common x-axis."""

    name: str
    x_label: str
    y_label: str
    series: list[SweepSeries] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    def add_series(self, label: str, **metadata) -> SweepSeries:
        """Create, register and return a new series."""
        series = SweepSeries(label=label, metadata=dict(metadata))
        self.series.append(series)
        return series

    def labels(self) -> list[str]:
        """Labels of every series."""
        return [series.label for series in self.series]

    def as_dict(self) -> dict:
        """JSON-serialisable view of the whole figure.

        The output is a pure function of the sweep data (no timestamps, no
        environment), so two runs with identical latencies export
        byte-identical JSON — the property the sweep cache's bit-identity
        checks rely on.
        """
        return {
            "name": self.name,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "parameters": dict(self.parameters),
            "series": [series.as_dict() for series in self.series],
        }


def sweep_result_from_points(
    name: str,
    x_label: str,
    y_label: str,
    points: Iterable,
    parameters: dict | None = None,
    series_metadata: dict | None = None,
) -> SweepResult:
    """Reassemble a figure from sweep point results.

    ``points`` is any iterable of objects exposing ``.spec.label`` (the
    series the point belongs to), ``.spec.x`` and ``.latencies_us`` — in
    practice :class:`repro.sweeps.spec.SweepPointResult` instances, fresh
    from the scheduler or loaded back out of the result store.  Series are
    created in first-appearance order and points keep their input order, so
    a spec list built series-by-series reproduces the figure exactly.

    ``series_metadata`` optionally maps series labels to metadata dicts
    (e.g. ``{"128-switch network": {"num_switches": 128}}``).
    """
    result = SweepResult(
        name=name,
        x_label=x_label,
        y_label=y_label,
        parameters=dict(parameters or {}),
    )
    series_metadata = series_metadata or {}
    by_label: dict[str, SweepSeries] = {}
    for point in points:
        label = point.spec.label
        series = by_label.get(label)
        if series is None:
            series = result.add_series(label, **dict(series_metadata.get(label, {})))
            by_label[label] = series
        series.add(point.spec.x, list(point.latencies_us))
    return result
