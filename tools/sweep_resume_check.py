#!/usr/bin/env python
"""End-to-end check of the sweep cache + resume semantics (CI smoke job).

Runs the ``figure3`` verb with the arguments pinned in
``tests/golden/sweeps.json`` (``exports.figure3.argv``: ``--scale smoke
figure3 --network-size 32 --degrees 4 8 --rates 0.005 0.02``) into one
store, as ``repro-spam <argv> --cache-dir DIR --export PATH`` does, and
asserts the subsystem's acceptance guarantees on the export bytes and on
the verb's printed ``figure3: N points: ...`` summary line:

1. the cold run computes every point, and its export hashes to the digest
   stored next to those arguments (``exports.figure3.sha256``), so the
   check has a stored reference, not only a same-run one;
2. a warm re-run computes nothing, reads everything from the store,
   exports byte-identical JSON, and is at least 10x faster than the cold
   run (wall time of the whole verb call);
3. after every other stored row is dropped (an interrupted sweep), a
   re-run completes exactly the dropped points with a nonzero cache-hit
   count and still exports the identical bytes.

Usage::

    PYTHONPATH=src python tools/sweep_resume_check.py [--cache-dir DIR]

Exits nonzero (AssertionError) on any violated guarantee.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main as repro_spam  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "sweeps.json"

#: The verb's summary line (``SweepOutcome.summary``).
SUMMARY = re.compile(
    r"^figure3: ((\d+) points: (\d+) cache hits, (\d+) computed(?: \([^)]*\))?)",
    re.MULTILINE,
)


def run_figure3(argv: list[str], cache_dir: Path, export: Path) -> tuple[bytes, dict]:
    """Run the verb into ``cache_dir``; returns its export bytes and a
    summary: the printed line's counts and text, and the call's seconds.

    The call is timed here because the printed line rounds its times to
    0.01 s, and the smoke grid's cold sweep takes a few hundredths."""
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = repro_spam([*argv, "--cache-dir", str(cache_dir), "--export", str(export)])
    seconds = time.perf_counter() - start
    assert code == 0, f"repro-spam exited {code}:\n{printed.getvalue()}"
    match = SUMMARY.search(printed.getvalue())
    assert match, f"no figure3 summary line in:\n{printed.getvalue()}"
    text, points, hits, computed = match.groups()
    summary = {
        "points": int(points),
        "hits": int(hits),
        "computed": int(computed),
        "seconds": seconds,
        "text": text,
    }
    return export.read_bytes(), summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="store directory (default: a fresh temp dir)")
    args = parser.parse_args()
    golden = json.loads(GOLDEN.read_text())["exports"]["figure3"]
    argv = golden["argv"]

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(args.cache_dir or (Path(tmp) / "sweep-cache"))
        export = Path(tmp) / "figure3.json"

        cold_export, cold = run_figure3(argv, cache_dir, export)
        assert cold["computed"] == cold["points"] and cold["hits"] == 0, cold["text"]
        print(f"cold run:   {cold['text']}")
        digest = hashlib.sha256(cold_export).hexdigest()
        assert digest == golden["sha256"], (
            f"cold export sha256 {digest} differs from {GOLDEN.relative_to(ROOT)} "
            f"exports.figure3 {golden['sha256']}"
        )
        print(f"cold export matches the stored Figure-3 digest {digest[:12]}")

        warm_export, warm = run_figure3(argv, cache_dir, export)
        assert warm["computed"] == 0 and warm["hits"] == warm["points"], warm["text"]
        assert warm_export == cold_export, "warm-cache export differs from cold"
        print(f"warm run:   {warm['text']}")
        speedup = cold["seconds"] / warm["seconds"]
        assert speedup >= 10.0, (
            f"warm-cache re-run only {speedup:.1f}x faster than cold (need >= 10x)"
        )
        print(f"warm/cold speedup: {speedup:.0f}x "
              f"({cold['seconds'] * 1e3:.1f} ms -> {warm['seconds'] * 1e3:.1f} ms)")

        # Simulate an interrupted sweep: drop every other stored row (the
        # scheduler checkpoints per point, so a kill leaves such a store).
        results_path = cache_dir / "results.jsonl"
        rows = results_path.read_bytes().splitlines(keepends=True)
        kept = rows[::2]
        results_path.write_bytes(b"".join(kept))
        print(f"deleted {len(rows) - len(kept)} of {len(rows)} stored rows")

        resumed_export, resumed = run_figure3(argv, cache_dir, export)
        assert resumed["hits"] == len(kept) > 0, resumed["text"]
        assert resumed["computed"] == len(rows) - len(kept), resumed["text"]
        assert resumed_export == cold_export, "resumed export differs from cold"
        print(f"resume run: {resumed['text']}")

    print("sweep resume check PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
