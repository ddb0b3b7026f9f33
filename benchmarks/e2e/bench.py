"""End-to-end benchmark: cold wall time to regenerate the paper's evaluation.

Run from the repository root::

    python benchmarks/e2e/bench.py --seed 0 --repeat 3      # all four workloads
    python benchmarks/e2e/bench.py --workload fig3_churn --seed 0 --seconds 15
    python benchmarks/e2e/bench.py --seed 0 --trace 1        # adds the per-layer ledger
    python benchmarks/e2e/bench.py compare set1.json set2.json

Every repetition is a fresh ``child.py`` process, one at a time, with the
workloads interleaved round by round.  The command prints every end-to-end
metric with its unit, median, quartiles and sample count, checks the
simulated outputs (golden digests in ``expected.json`` for seeds 0 and 1,
the paper's shape checks for every seed), writes the full record to
``--out`` and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics,
or the per-layer metrics of ``BENCHMARK.json`` with ``--trace 1``).  It
exits 1 when any output check fails and 2, without a result line, when a
child cannot run at all (for example when ``src/repro`` is missing).

``--trace 1`` adds one traced child per workload after the untraced
repetitions; see ``tracing.py`` and ``README.md`` for the ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# child.py imports only the standard library at module level, so the parent
# stays independent of the package it measures.
from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
RESULTS_DIR = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Fewest set-up samples per workload and run; set-up-only children top the
#: measured children up to this count so ``setup_s`` is always a median.
MIN_SETUP_SAMPLES = 5

#: The traced run must attribute at least this share of its wall time.
MIN_TRACE_COVERAGE = 0.95

#: A child that outlives this is killed with its process group.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A child could not run; no result can be reported."""


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name in ("trace.coverage", "sweeps.pool_efficiency"):
        return "ratio"
    if name.startswith("simulator.ns_per"):
        return "ns"
    return "count"


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of ``values``."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered)}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one child to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Results never depend on string hashing (repro-lint R2), but dict
    # layouts and so timings do: pin it to remove one source of spread.
    env["PYTHONHASHSEED"] = "0"
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    command = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--spawn-ns", str(spawn_ns), "--results-dir", str(RESULTS_DIR),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload} {mode} child timed out after {CHILD_TIMEOUT_S} s")
    if process.returncode != 0 or not stdout.strip():
        raise BenchError(
            f"{workload} {mode} child exited {process.returncode}:\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def failed_points(report: dict, golden: list[str] | None) -> list[int]:
    """Indices of a child's points that raised, missed a digest or broke a shape."""
    if "error" in report:
        return list(range(report["points"]))
    failed = set(report["shape_failures"])
    if golden is not None:
        failed.update(
            index for index, (got, want) in enumerate(zip(report["digests"], golden))
            if got != want
        )
        if len(report["digests"]) != len(golden):
            failed.update(range(report["points"]))
    return sorted(failed)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        # Never fall back to some other installed copy of the package.
        raise BenchError(f"no package source under {ROOT / 'src'}")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(str(args.seed), {})
    record = {
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    state = {
        w: {"runs": [], "setups": [], "trace": None, "measured_s": 0.0} for w in workloads
    }

    def progress(text: str) -> None:
        print(text, file=sys.stderr, flush=True)

    def wanted(w: str) -> bool:
        if args.seconds is not None:
            return state[w]["measured_s"] < args.seconds
        return len(state[w]["runs"]) < args.repeat

    while any(wanted(w) for w in workloads):
        for w in workloads:
            if not wanted(w):
                continue
            report = spawn(w, args.seed, "run")
            state[w]["runs"].append(report)
            state[w]["setups"].append(report)
            # A failed repetition ends the workload's repetitions.
            state[w]["measured_s"] += report.get("wall_s", float("inf"))
            progress(f"{w}: run {len(state[w]['runs'])} wall {report.get('wall_s', 0):.3f} s")
    while any(len(state[w]["setups"]) < MIN_SETUP_SAMPLES for w in workloads):
        for w in workloads:
            if len(state[w]["setups"]) < MIN_SETUP_SAMPLES:
                state[w]["setups"].append(spawn(w, args.seed, "setup"))
    if args.trace:
        for w in workloads:
            progress(f"{w}: traced run")
            state[w]["trace"] = spawn(w, args.seed, "trace")

    attempted = failed = 0
    problems: list[str] = []
    for w in workloads:
        runs = state[w]["runs"]
        golden = expected.get(w)
        reference = next((r["digests"] for r in runs if "error" not in r), None)
        w_attempted = w_failed = 0
        for index, report in enumerate(runs):
            # Without a golden, every repetition must at least agree with
            # the first one (the simulation is deterministic per seed).
            bad = failed_points(report, golden if golden is not None else reference)
            w_attempted += report["points"]
            w_failed += len(bad)
            if bad:
                problems.append(f"{w} run {index + 1}: points {bad} failed ({_why(report)})")
        traced = state[w]["trace"]
        if traced is not None:
            # The traced results must equal the untraced ones exactly.
            bad = failed_points(traced, reference)
            coverage = traced.get("layers", {}).get("trace.coverage", 1.0)
            if bad:
                problems.append(f"{w} traced run: points {bad} failed ({_why(traced)})")
            elif coverage < MIN_TRACE_COVERAGE:
                bad = list(range(traced["points"]))
                problems.append(
                    f"{w} traced run: coverage {coverage:.3f} < {MIN_TRACE_COVERAGE}"
                )
            w_attempted += traced["points"]
            w_failed += len(bad)
        attempted += w_attempted
        failed += w_failed
        record["workloads"][w] = workload_record(state[w], w_attempted, w_failed)

    benchmark = load_benchmark()
    print_report(record, benchmark)
    for problem in problems:
        print(f"FAILED: {problem}")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else RESULTS_DIR / f"run-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record written to {out}")

    names = (
        [m["name"] for m in benchmark["per_layer"]] if args.trace
        else [m["name"] for m in benchmark["end_to_end"]]
    )
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    metrics = {}
    for w in workloads:
        # A workload whose every repetition failed has no values to report.
        values = record["workloads"][w].get("layers" if args.trace else "metrics", {})
        for name in names:
            if name not in values:
                continue
            key = name if len(workloads) == 1 else f"{w}/{name}"
            value = values[name] if args.trace else values[name]["median"]
            metrics[key] = {"value": value, "unit": units[name]}
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def _why(report: dict) -> str:
    if "error" in report:
        return report["error"].strip().splitlines()[-1]
    if report["shape_failures"]:
        return f"shape check failed on {report['shape_failures']}"
    return "digest mismatch"


def workload_record(state: dict, attempted: int, failed: int) -> dict:
    """Samples, end-to-end summaries and (when traced) the layer ledger."""
    runs = [r for r in state["runs"] if "error" not in r]
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in state["setups"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {name: summarize(values) for name, values in samples.items() if values}
    metrics["error_rate"] = {
        "median": failed / attempted if attempted else 1.0, "q1": None, "q3": None,
        "n": attempted,
    }
    result = {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": runs[0]["digests"] if runs else [],
    }
    traced = state["trace"]
    if traced is not None and "layers" in traced:
        result["layers"] = ledger(traced, runs, state["setups"])
    return result


def ledger(traced: dict, runs: list[dict], setups: list[dict]) -> dict:
    """The per-layer metrics: traced spans plus untraced sweep accounting."""
    def median(values):
        return statistics.median(values) if values else 0.0

    layers = dict(traced["layers"])
    cold = [r["sweeps"][0] for r in runs]
    warm = [r["sweeps"][1] for r in runs if len(r["sweeps"]) > 1]
    workers = runs[0]["workers"] if runs else 1
    layers["sweeps.elapsed_s"] = median([s["elapsed_s"] for s in cold])
    layers["sweeps.evaluate_s"] = median([s["computed_s"] for s in cold])
    # At workers=1 this is elapsed minus computed; with a pool it is the
    # elapsed time not explained by perfectly divided computation.
    layers["sweeps.overhead_s"] = median(
        [s["elapsed_s"] - s["computed_s"] / workers for s in cold]
    )
    layers["sweeps.pool_efficiency"] = median(
        [s["computed_s"] / (workers * s["elapsed_s"]) for s in cold if s["elapsed_s"]]
    )
    layers["sweeps.store_scan_s"] = median([s["hit_s"] for s in warm])
    layers["sweeps.store_hits"] = median([s["cache_hits"] for s in warm])
    layers["sweeps.warm_s"] = median([s["elapsed_s"] for s in warm])
    layers["setup.import_scipy_s"] = median([s["import_scipy_s"] for s in setups])
    layers["setup.import_repro_s"] = median([s["import_repro_s"] for s in setups])
    untraced_wall = median([r["wall_s"] for r in runs])
    layers["trace.overhead_ratio"] = (
        traced["wall_s"] / untraced_wall if untraced_wall else 0.0
    )
    return layers


def print_report(record: dict, benchmark: dict) -> None:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units["error_rate"] = "ratio"
    print(f"seed {record['seed']}")
    header = f"{'workload':<15} {'metric':<12} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}"
    print(header)
    print("-" * len(header))
    for w, data in record["workloads"].items():
        for name, stats in data["metrics"].items():
            q1 = "" if stats["q1"] is None else f"{stats['q1']:.6g}"
            q3 = "" if stats["q3"] is None else f"{stats['q3']:.6g}"
            print(f"{w:<15} {name:<12} {units[name]:<6} {stats['median']:>12.6g} "
                  f"{q1:>12} {q3:>12} {stats['n']:>4}")
    for w, data in record["workloads"].items():
        layers = data.get("layers")
        if not layers:
            continue
        wall = layers["trace.wall_s"]
        print(f"\nper-layer ledger: {w} (traced wall {wall:.3f} s)")
        for name, value in layers.items():
            unit = unit_of(name)
            share = f"{value / wall:7.1%}" if unit == "s" and wall else ""
            print(f"  {name:<36} {value:>16.6g} {unit:<6} {share}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict of B against A for one metric, and B's median change."""
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (sa, sb)
    )
    if spread > bound:
        every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if every_b_better else "unresolved"), change
    if sign * change > bound:
        return "worse", change
    if sign * change < -bound:
        return "better", change
    return "within", change


def compare(args) -> int:
    benchmark = load_benchmark()
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    header = (
        f"{'workload':<15} {'metric':<12} {'A median [q1, q3] n':>34} "
        f"{'B median [q1, q3] n':>34} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = 0
    for w in [w for w in WORKLOADS if w in a["workloads"] and w in b["workloads"]]:
        wa, wb = a["workloads"][w], b["workloads"][w]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            xs, ys = wa["samples"][name], wb["samples"][name]
            result, change = verdict(xs, ys, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{w:<15} {name:<12} {_cell(xs):>34} {_cell(ys):>34} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {result}")
        # Failed points are never tolerated: any rise in error_rate is worse.
        rate_a = wa["failed"] / wa["attempted"]
        rate_b = wb["failed"] / wb["attempted"]
        result = "worse" if rate_b > rate_a else "better" if rate_b < rate_a else "within"
        worse += result == "worse"
        cell_a = f"{rate_a:.4g} n={wa['attempted']}"
        cell_b = f"{rate_b:.4g} n={wb['attempted']}"
        print(f"{w:<15} {'error_rate':<12} {cell_a:>34} {cell_b:>34} "
              f"{'':>8} {'+0':>6}  {result}")
    return 1 if worse else 0


def _cell(values: list[float]) -> str:
    s = summarize(values)
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the paper-figure regeneration."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts the workload and selection seeds")
    parser.add_argument("--repeat", type=int, default=3,
                        help="measured repetitions per workload")
    parser.add_argument("--seconds", type=float,
                        help="instead of --repeat: repeat until this much wall "
                             "time is measured per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced child per workload")
    parser.add_argument("--out", help="where to write the full JSON record")
    sub = parser.add_subparsers(dest="command")
    cmp_parser = sub.add_parser("compare", help="compare two --out records")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
