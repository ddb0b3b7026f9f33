"""Tests for the experiment drivers (reduced-size versions of each figure).

These tests run the same code paths as the benchmark harnesses but on small
networks with few samples, checking the *qualitative* claims of the paper:

* Figure 2 — latency essentially independent of the destination count;
* Figure 3 — latency grows with the arrival rate but stays close across
  multicast degrees;
* §4 comparison — SPAM beats the software multicast lower bound by a large
  factor for broadcast-sized destination sets.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    AblationConfig,
    run_buffer_depth_ablation,
    run_partition_ablation,
    run_root_ablation,
    run_selection_ablation,
)
from repro.experiments.common import SCALES, current_scale
from repro.experiments.figure2 import Figure2Config, default_destination_counts, run_figure2
from repro.experiments.figure3 import Figure3Config, run_figure3
from repro.experiments.software_comparison import (
    SoftwareComparisonConfig,
    run_software_comparison,
)

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def tiny_ablation_config():
    return AblationConfig(network_size=16, num_destinations=8, scale=SMOKE)


class TestScaling:
    def test_named_scales(self):
        assert SCALES["paper"].message_length_flits == 128
        assert current_scale().name in SCALES

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_FLITS", "16")
        monkeypatch.setenv("REPRO_SAMPLES", "3")
        scale = current_scale()
        assert scale.name == "smoke"
        assert scale.message_length_flits == 16
        assert scale.samples_per_point == 3

    def test_unknown_scale_name_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "papr")
        with pytest.raises(ConfigurationError, match=r"REPRO_SCALE.*default, paper, smoke.*'papr'"):
            current_scale()

    @pytest.mark.parametrize("variable", ["REPRO_FLITS", "REPRO_SAMPLES"])
    def test_non_integer_override_names_its_variable(self, monkeypatch, variable):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv(variable, "1.5")
        with pytest.raises(ConfigurationError, match=variable):
            current_scale()

    def test_default_destination_counts(self):
        counts = default_destination_counts(128)
        assert counts[0] == 1
        assert counts[-1] == 127
        assert counts == sorted(counts)
        assert len(counts) <= 8


class TestFigure2:
    @pytest.fixture(scope="class")
    def figure2_result(self):
        config = Figure2Config(
            network_sizes=(24,),
            destination_counts={24: [1, 4, 12, 23]},
            scale=SMOKE,
        )
        return run_figure2(config)

    def test_series_structure(self, figure2_result):
        assert figure2_result.labels() == ["24-switch network"]
        series = figure2_result.series[0]
        assert series.xs() == [1, 4, 12, 23]
        assert all(point.summary.count == SMOKE.samples_per_point for point in series.points)

    def test_latency_in_plausible_range(self, figure2_result):
        """With a 10 us startup the idle-network multicast latency must sit a
        little above 10 us — the paper reports 11-14 us."""
        for mean in figure2_result.series[0].means():
            assert 10.0 < mean < 20.0

    def test_latency_flat_in_destination_count(self, figure2_result):
        """The paper's headline claim: latency is essentially independent of
        the number of destinations (single worm, single startup)."""
        series = figure2_result.series[0]
        assert series.spread() < 0.25 * min(series.means())


class TestFigure3:
    @pytest.fixture(scope="class")
    def figure3_result(self):
        config = Figure3Config(
            network_size=24,
            multicast_degrees=(4, 8),
            arrival_rates_per_us=(0.005, 0.05),
            scale=SMOKE,
        )
        return run_figure3(config)

    def test_series_per_degree(self, figure3_result):
        assert figure3_result.labels() == ["4 destinations", "8 destinations"]
        for series in figure3_result.series:
            assert series.xs() == [0.005, 0.05]

    def test_latency_rises_with_rate(self, figure3_result):
        for series in figure3_result.series:
            means = series.means()
            assert means[-1] >= means[0]

    def test_latency_similar_across_degrees(self, figure3_result):
        """Latency should be largely independent of the multicast degree."""
        at_high_rate = [series.means()[-1] for series in figure3_result.series]
        assert max(at_high_rate) - min(at_high_rate) < 0.5 * min(at_high_rate)


class TestSoftwareComparison:
    def test_speedup_over_lower_bound(self):
        config = SoftwareComparisonConfig(
            network_size=24,
            destination_counts=(23,),
            scale=SMOKE,
            run_software_baseline=True,
        )
        rows = run_software_comparison(config)
        assert len(rows) == 1
        row = rows[0]
        assert row["software_bound_us"] >= 50.0
        assert row["speedup"] > 3.0
        # The executable binomial baseline can only be slower than the bound.
        assert row["software_measured_us"] >= row["software_bound_us"] * 0.95
        assert row["measured_speedup"] >= row["speedup"] * 0.9

    def test_bound_only_mode(self):
        config = SoftwareComparisonConfig(
            network_size=16,
            destination_counts=(8,),
            scale=SMOKE,
            run_software_baseline=False,
        )
        rows = run_software_comparison(config)
        assert "software_measured_us" not in rows[0]


class TestAblations:
    def test_buffer_depth_rows(self, tiny_ablation_config):
        rows = run_buffer_depth_ablation((1, 2), tiny_ablation_config)
        assert [row["buffer_depth"] for row in rows] == [1, 2]
        assert all(row["latency_us"] > 10.0 for row in rows)
        # Deeper buffers never make an idle-network multicast slower.
        assert rows[1]["latency_us"] <= rows[0]["latency_us"] + 0.05

    def test_selection_rows(self, tiny_ablation_config):
        rows = run_selection_ablation(("distance-to-lca", "first-allowed"), tiny_ablation_config)
        assert {row["selection"] for row in rows} == {"distance-to-lca", "first-allowed"}
        best = min(rows, key=lambda row: row["latency_us"])
        assert best["latency_us"] <= rows[0]["latency_us"] + 1e-9

    def test_root_rows(self, tiny_ablation_config):
        rows = run_root_ablation(("center", "first"), tiny_ablation_config)
        assert all("tree_height" in row for row in rows)
        center = next(row for row in rows if row["root_strategy"] == "center")
        first = next(row for row in rows if row["root_strategy"] == "first")
        assert center["tree_height"] <= first["tree_height"]

    def test_partition_rows(self, tiny_ablation_config):
        rows = run_partition_ablation((1, 2), config=tiny_ablation_config)
        assert [row["groups"] for row in rows] == [1, 2]
        # Splitting into two worms costs an extra startup on an idle network.
        assert rows[1]["latency_us"] > rows[0]["latency_us"]
