#!/usr/bin/env python
"""End-to-end check of the sweep cache + resume semantics (CI smoke job).

Runs a smoke-scale Figure-3 sweep through :mod:`repro.sweeps` and asserts
the subsystem's acceptance guarantees:

1. the cold run's figure export hashes to the Figure-3 digest checked in
   at ``tests/golden/sweeps.json`` (the same grid as ``repro-spam --scale
   smoke figure3 --network-size 32 --degrees 4 8 --rates 0.005 0.02
   --export``), so the check has a stored reference, not only a same-run
   one;
2. a warm-cache re-run computes nothing, reads everything from the store,
   produces a byte-identical figure export, and is at least 10x faster
   than the cold run;
3. after deleting half the store (simulating an interrupted sweep), a
   ``--resume`` re-run completes exactly the missing points with a nonzero
   cache-hit count and still reproduces the identical figure.

Usage::

    PYTHONPATH=src python tools/sweep_resume_check.py [--cache-dir DIR]

Exits nonzero (AssertionError) on any violated guarantee.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.common import SCALES  # noqa: E402
from repro.experiments.figure3 import (  # noqa: E402
    Figure3Config,
    figure3_result_from_points,
    figure3_specs,
)
from repro.sweeps import ResultStore, run_sweep  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "sweeps.json"


def export(config, outcome) -> bytes:
    figure = figure3_result_from_points(config, outcome.results)
    # Matches the bytes `repro-spam figure3 ... --export` writes.
    return (json.dumps(figure.as_dict(), indent=2, sort_keys=True) + "\n").encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="store directory (default: a fresh temp dir)")
    args = parser.parse_args()

    config = Figure3Config(
        network_size=32,
        multicast_degrees=(4, 8),
        arrival_rates_per_us=(0.005, 0.02),
        scale=SCALES["smoke"],
    )
    specs = figure3_specs(config)

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(args.cache_dir or (Path(tmp) / "sweep-cache"))

        # Timing comes from the scheduler's own wall-time accounting
        # (SweepOutcome.elapsed_seconds and friends), so what we assert on is
        # exactly what `repro-spam figure3` prints in its summary line.
        cold = run_sweep(specs, store=ResultStore(cache_dir))
        assert cold.computed == len(specs) and cold.cache_hits == 0, cold.summary()
        cold_export = export(config, cold)
        print(f"cold run:   {cold.summary()}")
        golden = json.loads(GOLDEN.read_text())["exports"]["figure3"]["sha256"]
        digest = hashlib.sha256(cold_export).hexdigest()
        assert digest == golden, (
            f"cold export sha256 {digest} differs from {GOLDEN.relative_to(ROOT)} "
            f"exports.figure3 {golden}"
        )
        print(f"cold export matches the stored Figure-3 digest {golden[:12]}")

        warm = run_sweep(specs, store=ResultStore(cache_dir))
        assert warm.computed == 0 and warm.cache_hits == len(specs), warm.summary()
        assert export(config, warm) == cold_export, "warm-cache export differs from cold"
        print(f"warm run:   {warm.summary()}")
        speedup = cold.elapsed_seconds / max(warm.elapsed_seconds, 1e-9)
        assert speedup >= 10.0, (
            f"warm-cache re-run only {speedup:.1f}x faster than cold (need >= 10x)"
        )
        print(f"warm/cold speedup: {speedup:.0f}x")

        # Simulate an interrupted sweep: drop every other stored row and the
        # index (the scheduler checkpoints per point, so a kill leaves
        # exactly such a prefix-of-rows store plus a possibly stale index).
        results_path = cache_dir / "results.jsonl"
        rows = results_path.read_bytes().splitlines(keepends=True)
        kept = rows[::2]
        results_path.write_bytes(b"".join(kept))
        (cache_dir / "index.json").unlink()
        print(f"deleted {len(rows) - len(kept)} of {len(rows)} stored rows")

        resumed = run_sweep(specs, store=ResultStore(cache_dir))
        assert resumed.cache_hits == len(kept), resumed.summary()
        assert resumed.cache_hits > 0, "resume must hit the surviving rows"
        assert resumed.computed == len(rows) - len(kept), resumed.summary()
        assert export(config, resumed) == cold_export, "resumed export differs from cold"
        print(f"resume run: {resumed.summary()}")

    print("sweep resume check PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
