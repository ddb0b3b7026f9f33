"""One measured benchmark repetition, run in a fresh interpreter.

``bench.py`` starts this script once per repetition so every measurement is
cold: the interpreter, the imports, the topology caches and the engine all
start from nothing, exactly as they do when a user regenerates a figure.

Modes
-----
``setup``
    Import the package, build the workload's spec list, report the set-up
    time and exit.  Extra set-up samples for ``setup_s``.
``run``
    Set up, then time the workload (cold ``run_sweep`` plus assembling the
    figure or rows) and check its outputs.
``trace``
    Like ``run``, but every workload runs at ``workers=1`` with the layer
    wrappers of :mod:`tracing` installed and a ``repro.obs.Telemetry``
    passed into ``run_sweep``; writes the span file and a Perfetto export.

The child prints one JSON object as the last line of its standard output.
An exception raised by the workload is reported in that object (every point
counts as failed); a failure to import the package is not caught, so the
child exits non-zero and the parent aborts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

WORKLOADS = ("fig3_churn", "fig2_stream", "sw_relay", "selection_reps")

#: Figure 2 and the selection replications are single multicasts on an idle
#: network: the paper's curves are flat between roughly 11 and 14 µs.
IDLE_LATENCY_BAND_US = (10.0, 20.0)

SELECTION_POINTS = 24
SELECTION_WORKERS = 2


def _now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn timestamp and
    # this process's timestamps share one time base.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ----------------------------------------------------------------------
# Workload definitions (inputs come only from SCALES["paper"] and the seed)
# ----------------------------------------------------------------------
def build_workload(name: str, seed: int):
    """``(specs, config)`` of workload ``name`` for benchmark seed ``seed``."""
    from repro.experiments.common import SCALES
    from repro.experiments.figure2 import Figure2Config, figure2_specs
    from repro.experiments.figure3 import Figure3Config, figure3_specs
    from repro.experiments.software_comparison import (
        SoftwareComparisonConfig,
        software_comparison_specs,
    )
    from repro.sweeps import SweepPointSpec

    paper = SCALES["paper"]
    if name == "fig3_churn":
        config = Figure3Config(
            multicast_degrees=(8, 64),
            arrival_rates_per_us=(0.01, 0.03),
            scale=paper,
            workload_seed=23 + seed,
        )
        return figure3_specs(config), config
    if name == "fig2_stream":
        config = Figure2Config(scale=paper, workload_seed=11 + seed)
        return figure2_specs(config), config
    if name == "sw_relay":
        config = SoftwareComparisonConfig(scale=paper, workload_seed=31 + seed)
        return software_comparison_specs(config), config
    if name == "selection_reps":
        specs = [
            SweepPointSpec(
                workload_kind="single-multicast",
                network_size=256,
                topology_seed=7,
                message_length_flits=paper.message_length_flits,
                workload_params=(("num_destinations", 32), ("samples", 2)),
                workload_seed=41 + seed,
                selection="random",
                selection_seed=1000 * seed + index,
                label="selection-reps",
                x=index,
            )
            for index in range(SELECTION_POINTS)
        ]
        return specs, None
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def run_workload(name, specs, config, workers, scratch, telemetry=None, tracer=None):
    """Run one workload; returns ``(wall_ns, results, outcomes, warm_identical)``.

    The timed region is what a user waits for: the cold ``run_sweep`` and
    the assembly of the figure (or rows), plus the warm re-run for
    ``selection_reps``.
    """
    from repro.analysis.sweeps import sweep_result_from_points
    from repro.experiments.figure2 import figure2_result_from_points
    from repro.experiments.figure3 import figure3_result_from_points
    from repro.sweeps import ResultStore, run_sweep

    def assemble(points):
        with tracer.span("analysis.assemble") if tracer else contextlib.nullcontext():
            if name == "fig3_churn":
                return figure3_result_from_points(config, points)
            if name == "fig2_stream":
                return figure2_result_from_points(config, points)
            if name == "sw_relay":
                return [point.metrics_dict() for point in points]
            return sweep_result_from_points(
                name="selection-reps", x_label="replication", y_label="latency_us",
                points=points,
            )

    warm_identical = None
    start_ns = _now_ns()
    if name == "selection_reps":
        cold = run_sweep(
            specs, store=ResultStore(scratch), workers=workers, telemetry=telemetry
        )
        assemble(cold.results)
        warm = run_sweep(
            specs, store=ResultStore(scratch), workers=workers, telemetry=telemetry
        )
        outcomes = [cold, warm]
    else:
        cold = run_sweep(specs, workers=workers, telemetry=telemetry)
        assemble(cold.results)
        outcomes = [cold]
    wall_ns = _now_ns() - start_ns
    if name == "selection_reps":
        warm_identical = (
            warm.computed == 0
            and warm.cache_hits == len(specs)
            and warm.results == cold.results
        )
    return wall_ns, cold.results, outcomes, warm_identical


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _plain(value):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise TypeError(f"unserialisable metric value {value!r}")


def point_digest(result) -> str:
    """sha256 of one point's identity, latencies and metrics (exact floats)."""
    payload = [
        result.spec.label,
        result.spec.x,
        list(result.latencies_us),
        [[key, value] for key, value in result.metrics],
    ]
    text = json.dumps(payload, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shape_failures(name: str, results, warm_identical) -> list[int]:
    """Indices of the points that break the paper's qualitative claims."""
    low, high = IDLE_LATENCY_BAND_US
    failed: set[int] = set()
    if name in ("fig2_stream", "selection_reps"):
        failed.update(
            index for index, result in enumerate(results)
            if not low <= result.mean_us <= high
        )
        if warm_identical is False:
            failed.update(range(len(results)))
    elif name == "fig3_churn":
        # Within each multicast degree, latency must not fall as the
        # arrival rate rises; a violation fails every point of the series.
        series: dict[str, list[int]] = {}
        for index, result in enumerate(results):
            series.setdefault(result.spec.label, []).append(index)
        for indices in series.values():
            ordered = sorted(indices, key=lambda i: results[i].spec.x)
            means = [results[i].mean_us for i in ordered]
            if any(later < earlier for earlier, later in zip(means, means[1:])):
                failed.update(indices)
    elif name == "sw_relay":
        failed.update(
            index for index, result in enumerate(results)
            if not result.metric("spam_latency_us") < result.metric("software_bound_us")
        )
    return sorted(failed)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN covers the pool
    # workers, which run_sweep has joined by the time this is read.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC timestamp taken just before the spawn")
    parser.add_argument("--results-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import_start_ns = _now_ns()
    import scipy.stats  # noqa: F401  (timed separately: the largest import)

    scipy_done_ns = _now_ns()
    import repro.experiments  # noqa: F401
    import repro.sweeps  # noqa: F401

    repro_done_ns = _now_ns()
    specs, config = build_workload(args.workload, args.seed)
    ready_ns = _now_ns()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": (ready_ns - args.spawn_ns) / 1e9,
        "import_scipy_s": (scipy_done_ns - import_start_ns) / 1e9,
        "import_repro_s": (repro_done_ns - scipy_done_ns) / 1e9,
        "points": len(specs),
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    args.results_dir.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="store-", dir=args.results_dir)
    tracer = telemetry = None
    workers = SELECTION_WORKERS if args.workload == "selection_reps" else 1
    if args.mode == "trace":
        import tracing
        from repro.obs import Telemetry

        telemetry = Telemetry(track="bench")
        tracer = tracing.LayerTracer(telemetry)
        workers = 1
    try:
        if tracer is not None:
            tracer.install()
        try:
            wall_ns, results, outcomes, warm_identical = run_workload(
                args.workload, specs, config, workers, scratch, telemetry, tracer
            )
        finally:
            if tracer is not None:
                tracer.restore()
    except Exception:
        report["error"] = traceback.format_exc()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report.update(
        wall_s=wall_ns / 1e9,
        peak_rss_mb=_peak_rss_mb(),
        workers=workers,
        digests=[point_digest(result) for result in results],
        shape_failures=shape_failures(args.workload, results, warm_identical),
        sweeps=[
            {
                "elapsed_s": outcome.elapsed_seconds,
                "computed_s": outcome.computed_seconds,
                "hit_s": outcome.hit_seconds,
                "cache_hits": outcome.cache_hits,
                "computed": outcome.computed,
            }
            for outcome in outcomes
        ],
    )
    if tracer is not None:
        from repro.obs.export import write_chrome_trace, write_snapshot

        stem = args.results_dir / f"trace-{args.workload}-seed{args.seed}"
        write_snapshot(telemetry, stem.with_suffix(".spans.json"))
        write_chrome_trace(telemetry, stem.with_suffix(".trace.json"))
        report["layers"] = tracing.layer_metrics(
            tracer, telemetry, wall_ns, report["sweeps"]
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
