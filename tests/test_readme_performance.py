"""The README "Engine performance" table must quote the committed BENCH file.

Each table row maps to the ``BENCH_simulator_throughput.json`` scenario(s)
it summarises; a speedup cell is one number (``6.86×``) or a range over
several scenarios (``6.54–6.66×``), and every number must equal the
recorded ``speedup`` of its scenario.  Re-recording the BENCH file without
updating the README (or the other way round) fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (Scenario, Flits) cells of a table row -> BENCH scenarios, in cell order.
ROW_SCENARIOS: dict[tuple[str, str], tuple[str, ...]] = {
    ("Broadcast, 64 switches", "512"): ("broadcast_64sw_512f",),
    ("Broadcast, 256 switches", "512"): ("broadcast_256sw_512f",),
    ("Figure-3 mixed traffic, Poisson", "512"): ("figure3_mixed_128sw_512f_poisson",),
    ("Figure-3 mixed traffic, neg.-binomial", "512"): (
        "figure3_mixed_128sw_512f_negative-binomial",
    ),
    ("Figure-3 mixed traffic, Poisson", "128"): ("figure3_mixed_128sw_128f_poisson",),
    ("Figure-3 mixed traffic, neg.-binomial", "128"): (
        "figure3_mixed_128sw_128f_negative-binomial",
    ),
}


def performance_rows() -> dict[tuple[str, str], str]:
    """(Scenario, Flits) -> speedup cell of the README performance table."""
    section = (ROOT / "README.md").read_text().split("## Engine performance", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) == 4 and cells[1].isdigit():
            rows[(cells[0], cells[1])] = cells[2]
        elif rows and not line.startswith("|"):
            break
    return rows


def test_readme_speedups_match_the_bench_file():
    recorded = {
        entry["scenario"]: entry["speedup"]
        for entry in json.loads(
            (ROOT / "BENCH_simulator_throughput.json").read_text()
        )["scenarios"]
    }
    rows = performance_rows()
    assert sorted(rows) == sorted(ROW_SCENARIOS)
    for row, cell in rows.items():
        quoted = [float(number) for number in re.findall(r"\d+\.\d+", cell)]
        expected = [recorded[name] for name in ROW_SCENARIOS[row]]
        assert quoted == expected, f"README row {row}: {cell} but BENCH records {expected}"
