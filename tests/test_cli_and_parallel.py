"""Tests for the command-line interface and single-point sweep evaluation."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.common import SCALES
from repro.experiments.figure2 import Figure2Config
from repro.sweeps import DEFAULT_STORE_DIR, SweepPointSpec, evaluate_spec

ROOT = Path(__file__).resolve().parent.parent


class TestCli:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_console_script_is_the_parser_prog(self):
        """The installed script is the command the docs and ``--help`` name.
        Read as text: ``tomllib`` is missing on Python 3.10."""
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
        entry = scripts.strip().splitlines()[0]
        assert entry == f'{build_parser().prog} = "repro.cli:main"'

    def test_experiment_verbs_share_the_run_flags(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "figure2"])
        for verb in ("figure2", "figure3", "compare"):
            args = parser.parse_args([verb])
            assert args.workers == 1 and args.resume and not args.no_cache
            assert args.cache_dir == DEFAULT_STORE_DIR
            assert args.export is None and args.telemetry is None
            assert not parser.parse_args([verb, "--no-resume"]).resume

    def test_default_scale_is_the_configs_default(self):
        """A figure regenerated without naming a scale simulates the same
        worms from the CLI as from the Python driver."""
        args = build_parser().parse_args(["figure2"])
        assert SCALES[args.scale] == Figure2Config().scale

    def test_topology_command(self, capsys, tmp_path):
        rc = main(["topology", "--switches", "12", "--seed", "3",
                   "--save", str(tmp_path / "net.json")])
        assert rc == 0
        output = capsys.readouterr().out
        assert "spanning tree root" in output
        assert (tmp_path / "net.json").exists()

    def test_figure2_command(self, capsys):
        rc = main(["--scale", "smoke", "figure2", "--network-sizes", "16", "--no-cache"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "destinations" in output
        assert "16-switch network" in output

    def test_figure3_command(self, capsys):
        rc = main([
            "--scale", "smoke", "figure3", "--network-size", "16",
            "--degrees", "4", "--rates", "0.01", "--no-cache",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "4 destinations" in output

    def test_compare_command_bound_only(self, capsys):
        rc = main([
            "--scale", "smoke", "compare", "--network-size", "16",
            "--destinations", "8", "--bound-only", "--no-cache",
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


#: A command line: optional ``VAR=value`` prefixes, then the program.
_COMMAND = re.compile(r"^\s*(?:\w+=\S*\s+)*(?:python -m repro\.cli|repro-spam)(?=\s|$)")


def documented_commands() -> list[tuple[str, list[str]]]:
    """``(where, argv)`` for every ``python -m repro.cli`` and ``repro-spam``
    command in a fenced code block of README.md and ``docs/*.md``, with
    ``\\`` continuations joined and the program name dropped from ``argv``."""
    commands = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", path.read_text(), re.M | re.S)
        for block in blocks:
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                match = _COMMAND.match(line)
                if match:
                    where = f"{path.relative_to(ROOT)}: {' '.join(line.split())}"
                    commands.append((where, shlex.split(line[match.end():], comments=True)))
    return commands


DOCUMENTED_COMMANDS = documented_commands()


def test_docs_show_cli_commands():
    assert len(DOCUMENTED_COMMANDS) >= 10


@pytest.mark.parametrize("where, argv", DOCUMENTED_COMMANDS, ids=[w for w, _ in DOCUMENTED_COMMANDS])
def test_documented_command_parses(where, argv):
    build_parser().parse_args(argv)


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
