#!/usr/bin/env python
"""End-to-end check of the sweep cache + resume semantics (CI smoke job).

Runs a smoke-scale Figure-3 sweep through :mod:`repro.sweeps` and asserts
the subsystem's acceptance guarantees:

1. a warm-cache re-run computes nothing, reads everything from the store,
   produces a byte-identical figure export, and is at least 10x faster
   than the cold run;
2. after deleting half the store (simulating an interrupted sweep), a
   ``--resume`` re-run completes exactly the missing points with a nonzero
   cache-hit count and still reproduces the identical figure.

With ``--shard I/N`` the same guarantees are asserted for one deterministic
shard of the sweep (the CI sweep-smoke job runs a 2-shard matrix this way;
an assembly step then merges the shard stores and compares the warm-cache
export against the unsharded golden).  ``--golden PATH`` additionally runs
the *full, unsharded* sweep into a throwaway store and writes its figure
export to PATH, byte-compatible with ``repro-spam sweep ... --export``.

Usage::

    PYTHONPATH=src python tools/sweep_resume_check.py \
        [--cache-dir DIR] [--shard I/N] [--golden PATH]

Exits nonzero (AssertionError) on any violated guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.common import SCALES  # noqa: E402
from repro.experiments.figure3 import (  # noqa: E402
    Figure3Config,
    figure3_result_from_points,
    figure3_specs,
)
from repro.sweeps import ResultStore, parse_shard, run_sweep, shard_specs  # noqa: E402


def export(config, outcome) -> bytes:
    figure = figure3_result_from_points(config, outcome.results)
    # Matches the bytes `repro-spam sweep ... --export` writes.
    return (json.dumps(figure.as_dict(), indent=2, sort_keys=True) + "\n").encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="store directory (default: a fresh temp dir)")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="check only shard I of N (1-based) of the sweep")
    parser.add_argument("--golden", default=None, metavar="PATH",
                        help="also run the full unsharded sweep (fresh temp store) "
                             "and write its figure export to PATH")
    args = parser.parse_args()
    shard = None if args.shard is None else parse_shard(args.shard)

    config = Figure3Config(
        network_size=32,
        multicast_degrees=(4, 8),
        arrival_rates_per_us=(0.005, 0.02),
        scale=SCALES["smoke"],
    )
    specs = figure3_specs(config)
    if shard is not None:
        specs = shard_specs(specs, *shard)
        print(f"shard {shard[0] + 1}/{shard[1]}: {len(specs)} of "
              f"{len(figure3_specs(config))} sweep points")
        assert specs, "shard is empty at this smoke scale; widen the grid"

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(args.cache_dir or (Path(tmp) / "sweep-cache"))

        # Timing comes from the scheduler's own wall-time accounting
        # (SweepOutcome.elapsed_seconds and friends), so what we assert on is
        # exactly what `repro-spam sweep` prints in its summary line.
        cold = run_sweep(specs, store=ResultStore(cache_dir))
        assert cold.computed == len(specs) and cold.cache_hits == 0, cold.summary()
        cold_export = export(config, cold)
        print(f"cold run:   {cold.summary()}")

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

        # The store ends complete: its manifest must owe nothing.
        status = ResultStore(cache_dir).manifest_status()
        assert status is not None and status.complete, status
        print(f"manifest:   {status.describe()}")

        if args.golden:
            golden_specs = figure3_specs(config)
            golden = run_sweep(golden_specs, store=ResultStore(Path(tmp) / "golden-cache"))
            assert golden.computed + golden.cache_hits == len(golden_specs)
            golden_path = Path(args.golden)
            golden_path.parent.mkdir(parents=True, exist_ok=True)
            golden_path.write_bytes(export(config, golden))
            print(f"golden unsharded export written to {golden_path}")

    print("sweep resume check PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
