"""Tests for the experiment drivers (reduced-size versions of each figure).

These tests run the same code paths as the ``repro-spam`` experiment verbs
but on small networks with few samples, checking the *qualitative* claims of
the paper:

* Figure 2 — latency essentially independent of the destination count and
  of the network size;
* Figure 3 — latency grows with the arrival rate from above the startup
  latency but stays close across multicast degrees;
* §4 comparison — SPAM beats the software multicast lower bound by a large
  factor for broadcast-sized destination sets, more so as the destination
  count grows;
* the ablations — every variant stays in the idle-network latency band, the
  paper's selection function is within noise of the best, and each extra
  partition worm costs about one startup.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import AblationConfig, run_ablations
from repro.experiments.common import SCALES
from repro.experiments.figure2 import (
    Figure2Config,
    default_destination_counts,
    figure2_specs,
    run_figure2,
)
from repro.experiments.figure3 import Figure3Config, run_figure3
from repro.experiments.software_comparison import (
    SoftwareComparisonConfig,
    run_software_comparison,
    software_comparison_specs,
)

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def tiny_ablations():
    return run_ablations(AblationConfig(network_size=16, num_destinations=8, scale=SMOKE))


class TestScaling:
    def test_named_scales(self):
        assert SCALES["paper"].message_length_flits == 128
        for config in (Figure2Config(), Figure3Config(), SoftwareComparisonConfig(),
                       AblationConfig()):
            assert config.scale is SCALES["default"]

    def test_environment_changes_nothing(self, monkeypatch):
        """The experiments read no environment variable: setting the former
        ``REPRO_*`` scale, worker and store variables leaves the specs as
        the configuration alone describes them."""
        former = {
            "REPRO_SCALE": "paper",
            "REPRO_FLITS": "16",
            "REPRO_SAMPLES": "3",
            "REPRO_SWEEP_WORKERS": "4",
            "REPRO_SWEEP_CACHE": "elsewhere",
        }
        for name in former:
            monkeypatch.delenv(name, raising=False)
        unset = figure2_specs(Figure2Config())
        for name, value in former.items():
            monkeypatch.setenv(name, value)
        assert figure2_specs(Figure2Config()) == unset
        assert {spec.message_length_flits for spec in unset} == {64}
        assert {dict(spec.workload_params)["samples"] for spec in unset} == {4}

    def test_default_destination_counts(self):
        counts = default_destination_counts(128)
        assert counts[0] == 1
        assert counts[-1] == 127
        assert counts == sorted(counts)
        assert len(counts) <= 8


class TestFigure2:
    COUNTS = {16: [1, 4, 8, 15], 24: [1, 4, 12, 23]}

    @pytest.fixture(scope="class")
    def figure2_result(self):
        config = Figure2Config(
            network_sizes=tuple(self.COUNTS),
            destination_counts=self.COUNTS,
            scale=SMOKE,
        )
        return run_figure2(config)

    def test_series_structure(self, figure2_result):
        assert figure2_result.labels() == ["16-switch network", "24-switch network"]
        for series, counts in zip(figure2_result.series, self.COUNTS.values()):
            assert series.xs() == counts
            assert all(point.summary.count == SMOKE.samples_per_point for point in series.points)

    def test_latency_in_plausible_range(self, figure2_result):
        """With a 10 us startup the idle-network multicast latency must sit a
        little above 10 us — the paper reports 11-14 us."""
        for series in figure2_result.series:
            for mean in series.means():
                assert 10.0 < mean < 20.0

    def test_latency_flat_in_destination_count(self, figure2_result):
        """The paper's headline claim: latency is essentially independent of
        the number of destinations (single worm, single startup)."""
        for series in figure2_result.series:
            assert series.spread() < 0.25 * min(series.means())

    def test_latency_flat_in_network_size(self, figure2_result):
        """Latency is also largely independent of the size of the network."""
        small, large = (series.max_mean() for series in figure2_result.series)
        assert abs(small - large) < 0.5 * min(small, large)


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
        """Every curve rises from the no-load latency, which the 10 us
        startup keeps above 10 us."""
        for series in figure3_result.series:
            means = series.means()
            assert means[0] > 10.0
            assert means[-1] >= means[0]

    def test_latency_similar_across_degrees(self, figure3_result):
        """Latency should be largely independent of the multicast degree."""
        at_high_rate = [series.means()[-1] for series in figure3_result.series]
        assert max(at_high_rate) - min(at_high_rate) < 0.5 * min(at_high_rate)


class TestSoftwareComparison:
    def test_speedup_over_lower_bound(self):
        config = SoftwareComparisonConfig(
            network_size=24,
            destination_counts=(4, 23),
            scale=SMOKE,
            run_software_baseline=True,
        )
        rows = run_software_comparison(config)
        assert [row["destinations"] for row in rows] == [4, 23]
        row = rows[-1]
        assert row["software_bound_us"] >= 50.0
        assert row["spam_latency_us"] < 25.0
        assert row["speedup"] > 3.0
        # The executable binomial baseline can only be slower than the bound.
        assert row["software_measured_us"] >= row["software_bound_us"] * 0.95
        assert row["measured_speedup"] >= row["speedup"] * 0.9
        # The advantage grows with the destination count.
        assert rows[0]["speedup"] <= rows[-1]["speedup"]

    def test_bound_only_mode(self):
        config = SoftwareComparisonConfig(
            network_size=16,
            destination_counts=(8,),
            scale=SMOKE,
            run_software_baseline=False,
        )
        rows = run_software_comparison(config)
        assert "software_measured_us" not in rows[0]

    def test_clamped_destination_counts_appear_once(self):
        """On 16 switches 32, 128 and 255 destinations all clamp to 15; the
        comparison lists that row once."""
        specs = software_comparison_specs(SoftwareComparisonConfig(network_size=16))
        assert [spec.x for spec in specs] == [8, 15]


class TestAblations:
    def test_buffer_depth_rows(self, tiny_ablations):
        rows = tiny_ablations["buffer_depth"]
        assert [row["buffer_depth"] for row in rows] == [1, 2, 4, 8]
        assert all(row["latency_us"] > 10.0 for row in rows)
        # Deeper buffers never make an idle-network multicast slower.
        for shallow, deep in zip(rows, rows[1:]):
            assert deep["latency_us"] <= shallow["latency_us"] + 0.05

    def test_selection_rows(self, tiny_ablations):
        by_name = {row["selection"]: row["latency_us"] for row in tiny_ablations["selection"]}
        assert list(by_name) == ["distance-to-lca", "first-allowed", "random"]
        # The paper's distance-to-LCA policy is within noise of the best one.
        assert by_name["distance-to-lca"] <= min(by_name.values()) * 1.05

    def test_root_rows(self, tiny_ablations):
        rows = {row["root_strategy"]: row for row in tiny_ablations["root"]}
        assert list(rows) == ["center", "max-degree", "first"]
        assert rows["center"]["tree_height"] <= rows["first"]["tree_height"]
        # Every root keeps the idle-network latency in the paper's band.
        assert all(10.0 < row["latency_us"] < 20.0 for row in rows.values())

    def test_partition_rows(self, tiny_ablations):
        groups = (1, 2, 4)
        rows = tiny_ablations["partition"]
        assert [row["groups"] for row in rows] == list(groups)
        assert [row["worms"] for row in rows] == list(groups)
        # The source serialises its sends, so on an idle network each extra
        # worm costs at least half a 10 us startup.
        latencies = [row["latency_us"] for row in rows]
        assert latencies == sorted(latencies)
        for index in range(1, len(groups)):
            extra_worms = groups[index] - groups[index - 1]
            assert latencies[index] - latencies[index - 1] >= 5.0 * extra_worms
