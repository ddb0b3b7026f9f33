"""Shared infrastructure for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper (or one
ablation) and

* runs the corresponding experiment driver exactly once per benchmark round
  (``benchmark.pedantic(..., rounds=1)``) so the wall-clock time reported by
  pytest-benchmark is the cost of regenerating that figure at the selected
  scale, and
* writes the regenerated rows/series to ``benchmarks/results/<name>.txt`` so
  the numbers can be inspected without re-running anything.

The scale is controlled by the ``REPRO_SCALE`` environment variable exactly
like the experiment drivers (``smoke`` / ``default`` / ``paper``); benchmarks
default to the ``default`` scale.

The figure and ablation harnesses call the experiment drivers, which route
through the :mod:`repro.sweeps` orchestrator: set ``REPRO_SWEEP_WORKERS=N``
to spread sweep points over ``N`` worker processes (the timing then reports
the sharded wall-clock).  No result store is passed, so benchmark timings
always measure real simulation, never cache hits;
``bench_sweep_orchestrator.py`` measures the cache itself.
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
