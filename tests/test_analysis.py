"""Tests for statistics, sweeps, software-multicast bounds and reports."""

from __future__ import annotations

import math

import pytest

from repro.analysis.bounds import (
    compare_against_bound,
    software_multicast_latency_model,
    software_multicast_lower_bound_us,
)
from repro.analysis.report import format_table, series_side_by_side
from repro.analysis.stats import _T_975, _t_975, confidence_interval, summarize_samples
from repro.analysis.sweeps import SweepResult, SweepSeries
from repro.experiments.common import SCALES


class TestSampleStatistics:
    def test_summary_basic(self):
        summary = summarize_samples([10.0, 12.0, 11.0, 13.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(11.5)
        assert summary.ci_low < summary.mean < summary.ci_high
        assert summary.std == pytest.approx(1.29099, rel=1e-4)

    def test_single_observation_degenerates(self):
        summary = summarize_samples([5.0])
        assert summary.ci_low == summary.ci_high == 5.0
        assert summary.std == 0.0
        assert summary.relative_half_width == 0.0

    def test_frozen_quantiles_cover_exactly_the_scales(self):
        """The table holds the degrees of freedom of Figure 2's samples and
        Figure 3's messages at every scale, and nothing else."""
        reached = {scale.samples_per_point - 1 for scale in SCALES.values()}
        reached |= {scale.messages_per_rate_point - 1 for scale in SCALES.values()}
        assert set(_T_975) == reached

    def test_frozen_quantiles_are_scipys(self):
        from scipy import stats

        for df, quantile in _T_975.items():
            assert _t_975(df) == quantile
            assert quantile == pytest.approx(float(stats.t.ppf(0.975, df)), rel=1e-12)

    @pytest.mark.parametrize("df", [2, 5, 199])
    def test_other_degrees_of_freedom_ask_scipy(self, df):
        from scipy import stats

        assert df not in _T_975
        assert _t_975(df) == float(stats.t.ppf(0.975, df))

    def test_interval_contains_true_mean_for_large_sample(self):
        values = [10 + (i % 7) * 0.5 for i in range(200)]
        low, high = confidence_interval(values)
        true_mean = sum(values) / len(values)
        assert low <= true_mean <= high
        assert summarize_samples(values).relative_half_width < 0.02

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples([])
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_as_dict(self):
        summary = summarize_samples([1.0, 2.0, 3.0])
        payload = summary.as_dict()
        assert payload["count"] == 3
        assert "rel_half_width" in payload


class TestBounds:
    def test_lower_bound_values(self):
        # Paper: 10 us startup, 255-destination broadcast in a 256-node
        # network -> ceil(log2(256)) = 8 phases -> 80 us; the paper quotes
        # 90 us using 511/512-ish rounding, either way far above SPAM's 14 us.
        assert software_multicast_lower_bound_us(255) == pytest.approx(80.0)
        assert software_multicast_lower_bound_us(127) == pytest.approx(70.0)
        assert software_multicast_lower_bound_us(1) == pytest.approx(10.0)
        assert software_multicast_lower_bound_us(0) == 0.0

    def test_latency_model_adds_network_term(self):
        bound = software_multicast_latency_model(15, startup_latency_us=10, per_phase_network_us=2)
        assert bound == pytest.approx(4 * 12)

    def test_comparison_speedup(self):
        comparison = compare_against_bound(255, measured_spam_latency_us=13.5)
        assert comparison.software_lower_bound_us == pytest.approx(80.0)
        assert comparison.speedup == pytest.approx(80.0 / 13.5)
        assert comparison.speedup > 5.0
        payload = comparison.as_dict()
        assert payload["destinations"] == 255

    def test_speedup_with_zero_latency(self):
        comparison = compare_against_bound(8, measured_spam_latency_us=0.0)
        assert math.isinf(comparison.speedup)


class TestSweeps:
    def build_sweep(self):
        result = SweepResult(name="demo", x_label="x", y_label="y")
        series = result.add_series("a", flavour=1)
        series.add(1, [10.0, 11.0])
        series.add(2, [10.5, 11.5])
        other = result.add_series("b")
        other.add(1, [20.0])
        return result

    def test_series_accessors(self):
        result = self.build_sweep()
        assert result.labels() == ["a", "b"]
        series = result.series[0]
        assert series.xs() == [1, 2]
        assert series.means() == [10.5, 11.0]
        assert series.spread() == pytest.approx(0.5)
        assert series.max_mean() == pytest.approx(11.0)

    def test_empty_series_spread(self):
        series = SweepSeries(label="empty")
        assert series.spread() == 0.0


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"name": "alpha", "value": 1.23456}, {"name": "b", "value": 20}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "1.235" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no data)"

    def test_series_side_by_side(self):
        result = TestSweeps().build_sweep()
        side = series_side_by_side(result)
        lines = side.splitlines()
        assert lines[0].split()[0] == "x"
        assert "a" in lines[0] and "b" in lines[0]
        # Row for x=1 contains values from both series.
        assert "10.5" in side and "20.0" in side
