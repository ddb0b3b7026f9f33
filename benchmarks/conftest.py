"""Shared fixtures for the pytest-benchmark engine harness
(``bench_simulator_throughput.py``).

The harness writes what it measured under ``benchmarks/results/`` so the
numbers can be inspected without re-running anything.  The paper's figures
are regenerated by the ``repro-spam`` experiment verbs, and their end-to-end
wall time is measured by ``benchmarks/e2e/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark harnesses drop their regenerated tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write a named result artefact and echo it to the terminal."""

    def _record(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return _record
