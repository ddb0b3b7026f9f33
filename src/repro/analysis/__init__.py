"""Analysis utilities: sample statistics, sweep containers, software-multicast
bounds and report formatting."""

from .hotspot import HotspotReport, analyze_multicast_load, root_traversal_probability
from .bounds import (
    SoftwareBoundComparison,
    compare_against_bound,
    software_multicast_latency_model,
    software_multicast_lower_bound_us,
)
from .report import format_table, series_side_by_side
from .stats import SampleSummary, confidence_interval, summarize_samples
from .sweeps import SweepPoint, SweepResult, SweepSeries, sweep_result_from_points

__all__ = [
    "SampleSummary",
    "summarize_samples",
    "confidence_interval",
    "SweepPoint",
    "SweepSeries",
    "SweepResult",
    "sweep_result_from_points",
    "software_multicast_lower_bound_us",
    "software_multicast_latency_model",
    "SoftwareBoundComparison",
    "compare_against_bound",
    "HotspotReport",
    "analyze_multicast_load",
    "root_traversal_probability",
    "format_table",
    "series_side_by_side",
]
