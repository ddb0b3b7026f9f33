"""Command-line interface.

``python -m repro.cli <command>`` (or the ``repro-spam`` console script)
exposes the library's main entry points without writing any Python:

``topology``
    Generate a paper-style irregular network, print its summary and
    optionally save it to JSON.
``figure2`` / ``figure3``
    Regenerate the paper's figures at a chosen scale and print the series.
``compare``
    SPAM vs. software-multicast comparison (the §4 six-fold-difference claim).
``verify``
    Run the deadlock/livelock verification suite on a generated topology.
``hotspot``
    Static root-hot-spot analysis (§5) for growing destination counts.
``sweep``
    Cached, resumable, parallel execution of any experiment through the
    :mod:`repro.sweeps` orchestrator (``--workers``, ``--resume``,
    ``--no-cache``, ``--export``).  ``--shard I/N`` restricts a run to one
    deterministic shard of the sweep so several hosts can split it;
    ``sweep merge --into DIR SRC...`` combines the per-shard stores back
    into one, after which an unsharded run is a pure warm-cache export.
``obs``
    Inspect wall-clock telemetry snapshots (:mod:`repro.obs`): validate
    them against the checked-in schema and print per-tier time-attribution
    tables.  Snapshots come from ``--telemetry OUT`` on the figure/compare/
    sweep commands, which also writes a Chrome-trace/Perfetto sibling
    (``OUT`` with a ``.trace.json`` suffix).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis.hotspot import root_traversal_probability
from .analysis.report import format_table, series_side_by_side
from .analysis.sweeps import sweep_coverage
from .core.spam import SpamRouting
from .errors import SweepError
from .experiments.common import SCALES
from .experiments.figure2 import (
    Figure2Config,
    default_destination_counts,
    figure2_result_from_points,
    figure2_specs,
    run_figure2,
)
from .experiments.figure3 import Figure3Config, figure3_result_from_points, figure3_specs, run_figure3
from .experiments.software_comparison import (
    SoftwareComparisonConfig,
    run_software_comparison,
    software_comparison_specs,
)
from .obs import (
    Telemetry,
    summarize_snapshot,
    validate_chrome_trace,
    validate_snapshot,
    write_chrome_trace,
    write_snapshot,
)
from .sweeps import DEFAULT_STORE_DIR, ResultStore, merge_stores, parse_shard, run_sweep
from .topology.irregular import lattice_irregular_network
from .topology.properties import summarize
from .topology.serialization import save_network
from .verification.cdg import build_spam_cdg
from .verification.harness import stress_test_deadlock_freedom
from .verification.reachability import check_unicast_reachability

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-spam`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-spam",
        description="SPAM (IPPS 1998) reproduction: topologies, figures, verification.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="smoke",
        help="experiment scale (message length and sample counts)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    topology = subparsers.add_parser("topology", help="generate and inspect an irregular network")
    topology.add_argument("--switches", type=int, default=64)
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument("--save", type=str, default=None, help="write the network to a JSON file")

    def add_telemetry_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--telemetry", default=None, metavar="OUT",
            help="record wall-clock telemetry (repro.obs) and write the JSON "
                 "snapshot to OUT plus a Chrome-trace/Perfetto sibling "
                 "(OUT with a .trace.json suffix); results are bit-identical "
                 "with or without this flag",
        )

    figure2 = subparsers.add_parser("figure2", help="latency vs number of destinations")
    figure2.add_argument("--network-sizes", type=int, nargs="+", default=[64])
    figure2.add_argument("--seed", type=int, default=7)
    add_telemetry_flag(figure2)

    figure3 = subparsers.add_parser("figure3", help="latency vs arrival rate (mixed traffic)")
    figure3.add_argument("--network-size", type=int, default=64)
    figure3.add_argument("--degrees", type=int, nargs="+", default=[8, 16])
    figure3.add_argument(
        "--rates", type=float, nargs="+", default=[0.005, 0.02, 0.04],
        help="per-processor arrival rates in messages per microsecond",
    )
    figure3.add_argument(
        "--arrival", choices=["negative-binomial", "poisson"],
        default="negative-binomial",
        help="arrival process at every processor (paper: negative-binomial)",
    )
    figure3.add_argument("--seed", type=int, default=7)
    add_telemetry_flag(figure3)

    compare = subparsers.add_parser("compare", help="SPAM vs software multicast")
    compare.add_argument("--network-size", type=int, default=64)
    compare.add_argument("--destinations", type=int, nargs="+", default=[8, 32, 63])
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--bound-only", action="store_true",
        help="skip executing the binomial software baseline (faster)",
    )
    add_telemetry_flag(compare)

    sweep = subparsers.add_parser(
        "sweep",
        help="cached, resumable, parallel experiment sweeps (repro.sweeps)",
        description=(
            "Run an experiment through the sweep orchestrator: results are "
            "content-addressed in the cache directory, an interrupted sweep "
            "resumes from what it already computed, and points spread over "
            "worker processes.  '--shard I/N' runs one deterministic shard "
            "of the sweep (split across hosts, one cache dir each); "
            "'sweep merge --into DIR SRC...' combines per-shard stores "
            "conflict-free and reports the points a shard still owes."
        ),
    )
    sweep.add_argument(
        "experiment",
        choices=["figure2", "figure3", "compare", "merge"],
        help="experiment to sweep, or 'merge' to combine per-shard stores",
    )
    sweep.add_argument("sources", nargs="*", default=[], metavar="SRC",
                       help="[merge] source store directories to merge")
    sweep.add_argument("--into", default=None, metavar="DIR",
                       help="[merge] destination store directory")
    sweep.add_argument("--shard", default=None, metavar="I/N",
                       help="run only shard I of N (1-based, e.g. 2/4): a "
                            "deterministic content-addressed slice of the sweep, "
                            "disjoint from every other shard")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: $REPRO_SWEEP_WORKERS or sequential; "
                            "0 = one per CPU)")
    sweep.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                       help="reuse stored results and compute only missing points "
                            "(--no-resume recomputes everything)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the result store entirely (no reads, no writes)")
    sweep.add_argument("--cache-dir", default=DEFAULT_STORE_DIR,
                       help="result store directory (default: %(default)s)")
    sweep.add_argument("--export", default=None, metavar="PATH",
                       help="write the assembled figure/rows as JSON to PATH")
    # Experiment knobs (union of the figure2/figure3/compare options).
    sweep.add_argument("--network-sizes", type=int, nargs="+", default=[64],
                       help="[figure2] network sizes to sweep")
    sweep.add_argument("--network-size", type=int, default=64,
                       help="[figure3/compare] network size")
    sweep.add_argument("--degrees", type=int, nargs="+", default=[8, 16],
                       help="[figure3] multicast degrees")
    sweep.add_argument("--rates", type=float, nargs="+", default=[0.005, 0.02, 0.04],
                       help="[figure3] per-processor arrival rates (messages/us)")
    sweep.add_argument("--arrival", choices=["negative-binomial", "poisson"],
                       default="negative-binomial", help="[figure3] arrival process")
    sweep.add_argument("--destinations", type=int, nargs="+", default=[8, 32, 63],
                       help="[compare] destination counts")
    sweep.add_argument("--bound-only", action="store_true",
                       help="[compare] skip the executable software baseline")
    sweep.add_argument("--seed", type=int, default=7)
    add_telemetry_flag(sweep)

    obs = subparsers.add_parser(
        "obs", help="inspect repro.obs telemetry snapshots",
        description=(
            "Work with the telemetry artifacts written by --telemetry: "
            "'obs validate' checks a snapshot against the checked-in schema "
            "(and its Chrome trace for well-formedness), 'obs summarize' "
            "prints per-tier probe time attribution and span totals."
        ),
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summarize = obs_sub.add_parser(
        "summarize", help="per-tier time attribution from a snapshot")
    obs_summarize.add_argument("file", help="telemetry snapshot JSON")
    obs_validate = obs_sub.add_parser(
        "validate", help="validate snapshot (and Chrome trace) files")
    obs_validate.add_argument("file", help="telemetry snapshot JSON")
    obs_validate.add_argument(
        "--trace", default=None, metavar="PATH",
        help="Chrome-trace JSON to check (default: the snapshot's "
             ".trace.json sibling when present)",
    )

    verify = subparsers.add_parser("verify", help="deadlock/livelock verification")
    verify.add_argument("--switches", type=int, default=32)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--rounds", type=int, default=2)

    hotspot = subparsers.add_parser("hotspot", help="root hot-spot probability (paper §5)")
    hotspot.add_argument("--switches", type=int, default=64)
    hotspot.add_argument("--seed", type=int, default=0)
    hotspot.add_argument("--destinations", type=int, nargs="+", default=[2, 8, 32, 63])
    hotspot.add_argument("--samples", type=int, default=100)

    return parser


def _cmd_topology(args) -> int:
    network = lattice_irregular_network(args.switches, seed=args.seed)
    print(format_table([summarize(network).as_dict()]))
    spam = SpamRouting.build(network)
    print(f"spanning tree root: switch {spam.tree.root} (height {spam.tree.height()})")
    print(f"channel labels: {spam.labeling.counts()}")
    if args.save:
        path = save_network(network, args.save)
        print(f"network written to {path}")
    return 0


def _make_telemetry(args) -> Telemetry | None:
    """A live recorder when ``--telemetry OUT`` was given, else ``None``."""
    return Telemetry(track="main") if getattr(args, "telemetry", None) else None


def _write_telemetry(telemetry: Telemetry, out: str) -> None:
    snapshot_path = write_snapshot(telemetry, out)
    trace_path = write_chrome_trace(telemetry, Path(out).with_suffix(".trace.json"))
    print(f"telemetry written to {snapshot_path} (trace: {trace_path})")


def _cmd_figure2(args, scale) -> int:
    config = Figure2Config(
        network_sizes=tuple(args.network_sizes),
        destination_counts={
            size: default_destination_counts(size, points=6) for size in args.network_sizes
        },
        scale=scale,
        topology_seed=args.seed,
    )
    telemetry = _make_telemetry(args)
    result = run_figure2(config, telemetry=telemetry)
    print(series_side_by_side(result))
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry)
    return 0


def _cmd_figure3(args, scale) -> int:
    config = Figure3Config(
        network_size=args.network_size,
        multicast_degrees=tuple(args.degrees),
        arrival_rates_per_us=tuple(args.rates),
        arrival=args.arrival,
        scale=scale,
        topology_seed=args.seed,
    )
    telemetry = _make_telemetry(args)
    result = run_figure3(config, telemetry=telemetry)
    print(series_side_by_side(result))
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry)
    return 0


def _cmd_compare(args, scale) -> int:
    config = SoftwareComparisonConfig(
        network_size=args.network_size,
        destination_counts=tuple(args.destinations),
        scale=scale,
        topology_seed=args.seed,
        run_software_baseline=not args.bound_only,
    )
    telemetry = _make_telemetry(args)
    rows = run_software_comparison(config, telemetry=telemetry)
    print(format_table(rows))
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry)
    return 0


def _cmd_merge(args) -> int:
    if not args.into:
        print("sweep merge: --into DIR is required", file=sys.stderr)
        return 2
    if not args.sources:
        print("sweep merge: at least one source store is required", file=sys.stderr)
        return 2
    for source in args.sources:
        status = ResultStore(source).manifest_status()
        if status is not None:
            print(f"  {source}: {status.describe()}")
    try:
        report = merge_stores(args.into, *args.sources)
    except (SweepError, ValueError) as exc:
        print(f"sweep merge: {exc}", file=sys.stderr)
        return 1
    print(f"sweep merge: {report.summary()}  (store: {args.into})")
    if report.missing:
        print(f"  still missing {len(report.missing)} expected point(s); "
              f"re-run the owing shard(s) and merge again")
    return 0


def _sweep_universe(experiment: str, args, scale):
    """The specs of one sweep experiment and the assembler that turns their
    results into a figure (``None`` for the row-table comparison)."""
    if experiment == "figure2":
        config = Figure2Config(
            network_sizes=tuple(args.network_sizes),
            destination_counts={
                size: default_destination_counts(size, points=6) for size in args.network_sizes
            },
            scale=scale,
            topology_seed=args.seed,
        )
        specs = figure2_specs(config)
        assemble = lambda points: figure2_result_from_points(config, points)  # noqa: E731
    elif experiment == "figure3":
        config = Figure3Config(
            network_size=args.network_size,
            multicast_degrees=tuple(args.degrees),
            arrival_rates_per_us=tuple(args.rates),
            arrival=args.arrival,
            scale=scale,
            topology_seed=args.seed,
        )
        specs = figure3_specs(config)
        assemble = lambda points: figure3_result_from_points(config, points)  # noqa: E731
    else:
        config = SoftwareComparisonConfig(
            network_size=args.network_size,
            destination_counts=tuple(args.destinations),
            scale=scale,
            topology_seed=args.seed,
            run_software_baseline=not args.bound_only,
        )
        specs = software_comparison_specs(config)
        assemble = None
    return specs, assemble


def _cmd_sweep(args, scale) -> int:
    if args.experiment == "merge":
        return _cmd_merge(args)
    if args.sources or args.into:
        print("sweep: SRC.../--into are only valid with the 'merge' experiment",
              file=sys.stderr)
        return 2
    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
    specs, assemble = _sweep_universe(args.experiment, args, scale)

    store = None if args.no_cache else ResultStore(args.cache_dir)

    def progress(done, total, spec):
        print(f"  [{done}/{total}] {spec.label} x={spec.x}", flush=True)

    telemetry = _make_telemetry(args)
    outcome = run_sweep(
        specs, store=store, workers=args.workers, resume=args.resume,
        progress=progress, shard=shard, telemetry=telemetry,
    )
    if assemble is not None:
        result = assemble(outcome.results)
        print(series_side_by_side(result))
        exported = result.as_dict()
    else:
        rows = [point.metrics_dict() for point in outcome.results]
        print(format_table(rows))
        exported = {"experiment": args.experiment, "rows": rows}
    shard_note = ""
    if shard is not None:
        coverage = sweep_coverage(specs, outcome.results)
        shard_note = f"  [shard {shard[0] + 1}/{shard[1]}: {coverage.summary()}]"
    print(f"sweep: {outcome.summary()}"
          + ("" if store is None else f"  (store: {store.root})")
          + shard_note)
    if args.export:
        with open(args.export, "w") as handle:
            json.dump(exported, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"exported to {args.export}")
    if telemetry is not None:
        _write_telemetry(telemetry, args.telemetry)
    return 0


def _cmd_obs(args) -> int:
    with open(args.file) as handle:
        document = json.load(handle)
    errors = validate_snapshot(document)
    if args.obs_command == "summarize":
        if errors:
            for error in errors:
                print(f"snapshot: {error}", file=sys.stderr)
            return 1
        tables = summarize_snapshot(document)
        if tables["tiers"]:
            print("probe time attribution (all tracks):")
            print(format_table([
                {
                    "tier": row["tier"],
                    "probes": row["probes"],
                    "total_ms": round(row["total_ms"], 3),
                    "mean_us": round(row["mean_us"], 2),
                    "share_%": round(100.0 * row["share"], 1),
                }
                for row in tables["tiers"]
            ]))
        else:
            print("no engine probe distributions in this snapshot")
        if tables["spans"]:
            print("span totals:")
            print(format_table([
                {
                    "span": row["span"],
                    "count": row["count"],
                    "total_ms": round(row["total_ms"], 3),
                }
                for row in tables["spans"]
            ]))
        return 0
    trace_path = args.trace
    if trace_path is None:
        sibling = Path(args.file).with_suffix(".trace.json")
        trace_path = str(sibling) if sibling.exists() else None
    trace_errors: list[str] = []
    if trace_path is not None:
        with open(trace_path) as handle:
            trace_errors = validate_chrome_trace(json.load(handle))
    for error in errors:
        print(f"snapshot: {error}", file=sys.stderr)
    for error in trace_errors:
        print(f"trace: {error}", file=sys.stderr)
    if errors or trace_errors:
        return 1
    print(f"obs validate: {args.file} ok"
          + ("" if trace_path is None else f"; {trace_path} ok"))
    return 0


def _cmd_verify(args) -> int:
    network = lattice_irregular_network(args.switches, seed=args.seed)
    spam = SpamRouting.build(network)
    cdg = build_spam_cdg(spam)
    print(f"channel dependency graph: {cdg.num_dependencies} dependencies, "
          f"acyclic={cdg.is_acyclic()}")
    reach = check_unicast_reachability(spam, sample_pairs=200)
    print(f"reachability: {reach.pairs_checked} pairs checked, failures={len(reach.failures)}")
    results = stress_test_deadlock_freedom(network, spam, rounds=args.rounds)
    delivered = sum(result.messages_completed for result in results)
    submitted = sum(result.messages_submitted for result in results)
    deadlocks = sum(1 for result in results if result.deadlocked)
    print(f"stress simulation: {delivered}/{submitted} messages delivered, "
          f"{deadlocks} deadlocked rounds")
    ok = cdg.is_acyclic() and reach.ok and deadlocks == 0 and delivered == submitted
    print("VERIFICATION PASSED" if ok else "VERIFICATION FAILED")
    return 0 if ok else 1


def _cmd_hotspot(args) -> int:
    network = lattice_irregular_network(args.switches, seed=args.seed)
    spam = SpamRouting.build(network)
    rows = []
    for count in args.destinations:
        probability = root_traversal_probability(
            spam, num_destinations=count, samples=args.samples, seed=args.seed
        )
        rows.append({"destinations": count, "P(LCA is root)": round(probability, 3)})
    print(format_table(rows))
    print("(the paper's §5 hot-spot concern: this probability grows with the "
          "destination count)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    # argparse cannot place a SRC... positional after "--into DIR" once the
    # experiment positional is consumed ("sweep merge --into DIR SRC..."),
    # so merge sources left unconsumed are collected here.
    args, extras = parser.parse_known_args(argv)
    if extras:
        if (
            args.command == "sweep"
            and getattr(args, "experiment", None) == "merge"
            and not any(extra.startswith("-") for extra in extras)
        ):
            args.sources = list(args.sources) + extras
        else:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    scale = SCALES[args.scale]
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "figure2":
        return _cmd_figure2(args, scale)
    if args.command == "figure3":
        return _cmd_figure3(args, scale)
    if args.command == "compare":
        return _cmd_compare(args, scale)
    if args.command == "sweep":
        return _cmd_sweep(args, scale)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "hotspot":
        return _cmd_hotspot(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
