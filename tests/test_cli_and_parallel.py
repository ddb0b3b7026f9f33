"""Tests for the command-line interface and single-point sweep evaluation."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.sweeps import SweepPointSpec, evaluate_spec


class TestCli:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_topology_command(self, capsys, tmp_path):
        rc = main(["topology", "--switches", "12", "--seed", "3",
                   "--save", str(tmp_path / "net.json")])
        assert rc == 0
        output = capsys.readouterr().out
        assert "spanning tree root" in output
        assert (tmp_path / "net.json").exists()

    def test_figure2_command(self, capsys):
        rc = main(["--scale", "smoke", "figure2", "--network-sizes", "16"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "destinations" in output
        assert "16-switch network" in output

    def test_figure3_command(self, capsys):
        rc = main([
            "--scale", "smoke", "figure3", "--network-size", "16",
            "--degrees", "4", "--rates", "0.01",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "4 destinations" in output

    def test_compare_command_bound_only(self, capsys):
        rc = main([
            "--scale", "smoke", "compare", "--network-size", "16",
            "--destinations", "8", "--bound-only",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "speedup" in output

    def test_verify_command(self, capsys):
        rc = main(["verify", "--switches", "16", "--rounds", "1"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "VERIFICATION PASSED" in output

    def test_hotspot_command(self, capsys):
        rc = main(["hotspot", "--switches", "16", "--destinations", "2", "8",
                   "--samples", "20"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "P(LCA is root)" in output


class TestEvaluateSpec:
    def test_single_multicast(self):
        spec = SweepPointSpec(
            workload_kind="single-multicast",
            network_size=16,
            topology_seed=3,
            message_length_flits=16,
            workload_params=(("num_destinations", 4), ("samples", 2)),
            workload_seed=5,
            x=4.0,
        )
        result = evaluate_spec(spec)
        assert len(result.latencies_us) == 2
        assert result.mean_us > 10.0
        assert result.spec is spec

    def test_mixed(self):
        spec = SweepPointSpec(
            workload_kind="mixed",
            network_size=16,
            topology_seed=3,
            message_length_flits=16,
            workload_params=(
                ("rate_per_us", 0.02),
                ("multicast_destinations", 4),
                ("num_messages", 10),
            ),
            workload_seed=5,
            x=0.02,
        )
        result = evaluate_spec(spec)
        assert len(result.latencies_us) == 10

    def test_unknown_kind_rejected(self):
        spec = SweepPointSpec(
            workload_kind="bogus",
            network_size=16,
            topology_seed=3,
            message_length_flits=16,
            workload_params=(),
            workload_seed=5,
        )
        with pytest.raises(ValueError):
            evaluate_spec(spec)
