"""Smoke tests running the example applications end to end.

The examples are part of the public deliverable; these tests make sure they
keep working as the library evolves.  They are executed in-process (via
``runpy``) so coverage tools see them and failures produce real tracebacks.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example {name} is missing"
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "figure1_walkthrough.py",
        "single_multicast_sweep.py",
        "mixed_traffic_study.py",
        "deadlock_verification.py",
        "partitioned_broadcast.py",
    } <= names


def test_quickstart_runs(capsys):
    run_example("quickstart.py")
    output = capsys.readouterr().out
    assert "SPAM multicast latency" in output
    assert "Hardware-multicast advantage" in output


def test_figure1_walkthrough_runs(capsys):
    run_example("figure1_walkthrough.py")
    output = capsys.readouterr().out
    assert "LCA of destinations: node 4" in output
    assert "delivered to all 4 destinations: True" in output


def test_single_multicast_sweep_runs(capsys):
    run_example("single_multicast_sweep.py", argv=["24"])
    output = capsys.readouterr().out
    assert "Latency vs number of destinations" in output
    assert "software lower bound" in output


@pytest.mark.slow
def test_mixed_traffic_study_runs(capsys):
    run_example("mixed_traffic_study.py")
    output = capsys.readouterr().out
    assert "Mean latency" in output


@pytest.mark.slow
def test_deadlock_verification_runs(capsys):
    run_example("deadlock_verification.py")
    output = capsys.readouterr().out
    assert "acyclic=True" in output
    assert "deadlocked=False" in output
    assert "delivered 0/8 messages, deadlocked=True" in output
    assert "circular wait 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 7 -> 0\n" in output


@pytest.mark.slow
def test_partitioned_broadcast_runs(capsys):
    run_example("partitioned_broadcast.py")
    output = capsys.readouterr().out
    assert "partitioned broadcast" in output.lower()
