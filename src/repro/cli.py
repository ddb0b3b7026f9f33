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
``obs``
    Inspect wall-clock telemetry snapshots (:mod:`repro.obs`): validate
    them against the checked-in schema and print per-tier time-attribution
    tables.

The experiment verbs (``figure2``, ``figure3``, ``compare``) run their
points through the :mod:`repro.sweeps` orchestrator and share its run
flags: results are content-addressed in ``--cache-dir`` (default
``.sweep-cache/``; ``--no-cache`` bypasses the store), an interrupted run
resumes from what it already computed (``--no-resume`` recomputes), points
spread over ``--workers`` processes, ``--export`` writes the assembled
figure or rows as JSON, and ``--telemetry OUT`` writes a telemetry snapshot
plus a Chrome-trace/Perfetto sibling (``OUT`` with a ``.trace.json``
suffix).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis.hotspot import root_traversal_probability
from .analysis.report import format_table, series_side_by_side
from .core.spam import SpamRouting
from .experiments.common import SCALES
from .experiments.figure2 import (
    Figure2Config,
    default_destination_counts,
    figure2_result_from_points,
    figure2_specs,
)
from .experiments.figure3 import Figure3Config, figure3_result_from_points, figure3_specs
from .experiments.software_comparison import SoftwareComparisonConfig, software_comparison_specs
from .obs import (
    Telemetry,
    summarize_snapshot,
    validate_chrome_trace,
    validate_snapshot,
    write_chrome_trace,
    write_snapshot,
)
from .sweeps import DEFAULT_STORE_DIR, ResultStore, run_sweep
from .topology.irregular import lattice_irregular_network
from .topology.properties import summarize
from .topology.serialization import save_network
from .verification.cdg import build_spam_cdg
from .verification.harness import stress_test_deadlock_freedom
from .verification.reachability import check_unicast_reachability

__all__ = ["build_parser", "main"]


def _add_run_flags(command: argparse.ArgumentParser) -> None:
    """The run flags every experiment verb shares: store, resume, workers,
    export and telemetry."""
    command.add_argument("--workers", type=int, default=1,
                         help="worker processes (default: %(default)s, sequential; "
                              "0 = one per usable CPU)")
    command.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                         help="reuse stored results and compute only missing points "
                              "(--no-resume recomputes everything)")
    command.add_argument("--no-cache", action="store_true",
                         help="bypass the result store entirely (no reads, no writes)")
    command.add_argument("--cache-dir", default=DEFAULT_STORE_DIR,
                         help="result store directory (default: %(default)s)")
    command.add_argument("--export", default=None, metavar="PATH",
                         help="write the assembled figure/rows as JSON to PATH")
    command.add_argument(
        "--telemetry", default=None, metavar="OUT",
        help="record wall-clock telemetry (repro.obs) and write the JSON "
             "snapshot to OUT plus a Chrome-trace/Perfetto sibling "
             "(OUT with a .trace.json suffix); results are bit-identical "
             "with or without this flag",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-spam`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-spam",
        description="SPAM (IPPS 1998) reproduction: topologies, figures, verification.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="experiment scale (message length and sample counts); the "
        "experiment configurations' default",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    topology = subparsers.add_parser("topology", help="generate and inspect an irregular network")
    topology.add_argument("--switches", type=int, default=64)
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument("--save", type=str, default=None, help="write the network to a JSON file")

    figure2 = subparsers.add_parser("figure2", help="latency vs number of destinations")
    figure2.add_argument("--network-sizes", type=int, nargs="+", default=[64])
    figure2.add_argument("--seed", type=int, default=7)
    _add_run_flags(figure2)

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
    _add_run_flags(figure3)

    compare = subparsers.add_parser("compare", help="SPAM vs software multicast")
    compare.add_argument("--network-size", type=int, default=64)
    compare.add_argument("--destinations", type=int, nargs="+", default=[8, 32, 63])
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--bound-only", action="store_true",
        help="skip executing the binomial software baseline (faster)",
    )
    _add_run_flags(compare)

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


def _run_experiment(args, specs, render) -> int:
    """Run an experiment verb: evaluate ``specs`` under the run flags, print
    the table of ``render(results)``, a ``(table, export document)`` pair,
    and the sweep summary, and write the document to ``--export``."""
    store = None if args.no_cache else ResultStore(args.cache_dir)
    telemetry = Telemetry(track="main") if args.telemetry else None

    def progress(done, total, spec):
        print(f"  [{done}/{total}] {spec.label} x={spec.x}", flush=True)

    outcome = run_sweep(
        specs, store=store, workers=args.workers, resume=args.resume,
        progress=progress, telemetry=telemetry,
    )
    table, exported = render(outcome.results)
    print(table)
    print(f"{args.command}: {outcome.summary()}"
          + ("" if store is None else f"  (store: {store.root})"))
    if args.export:
        with open(args.export, "w") as handle:
            json.dump(exported, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"exported to {args.export}")
    if telemetry is not None:
        snapshot_path = write_snapshot(telemetry, args.telemetry)
        trace_path = write_chrome_trace(telemetry, Path(args.telemetry).with_suffix(".trace.json"))
        print(f"telemetry written to {snapshot_path} (trace: {trace_path})")
    return 0


def _figure(result) -> tuple[str, dict]:
    """A figure's printed series and its export document."""
    return series_side_by_side(result), result.as_dict()


def _cmd_figure2(args) -> int:
    config = Figure2Config(
        network_sizes=tuple(args.network_sizes),
        destination_counts={
            size: default_destination_counts(size, points=6) for size in args.network_sizes
        },
        scale=SCALES[args.scale],
        topology_seed=args.seed,
    )
    return _run_experiment(
        args, figure2_specs(config),
        lambda points: _figure(figure2_result_from_points(config, points)),
    )


def _cmd_figure3(args) -> int:
    config = Figure3Config(
        network_size=args.network_size,
        multicast_degrees=tuple(args.degrees),
        arrival_rates_per_us=tuple(args.rates),
        arrival=args.arrival,
        scale=SCALES[args.scale],
        topology_seed=args.seed,
    )
    return _run_experiment(
        args, figure3_specs(config),
        lambda points: _figure(figure3_result_from_points(config, points)),
    )


def _cmd_compare(args) -> int:
    config = SoftwareComparisonConfig(
        network_size=args.network_size,
        destination_counts=tuple(args.destinations),
        scale=SCALES[args.scale],
        topology_seed=args.seed,
        run_software_baseline=not args.bound_only,
    )

    def render(points):
        rows = [point.metrics_dict() for point in points]
        return format_table(rows), {"experiment": "compare", "rows": rows}

    return _run_experiment(args, software_comparison_specs(config), render)


def _read_json(path: str, label: str) -> tuple[bool, object]:
    """``(True, document)`` for the JSON file at ``path``; ``(False, None)``
    after printing ``<label>: <path>: <reason>`` to stderr when the file is
    missing, unreadable or not JSON."""
    try:
        with open(path) as handle:
            return True, json.load(handle)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        reason = f"not JSON ({exc})"
    print(f"{label}: {path}: {reason}", file=sys.stderr)
    return False, None


def _cmd_obs(args) -> int:
    read, document = _read_json(args.file, "snapshot")
    if not read:
        return 1
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
    trace_read, trace_errors = True, []
    if trace_path is not None:
        trace_read, trace = _read_json(trace_path, "trace")
        if trace_read:
            trace_errors = validate_chrome_trace(trace)
    for error in errors:
        print(f"snapshot: {error}", file=sys.stderr)
    for error in trace_errors:
        print(f"trace: {error}", file=sys.stderr)
    if errors or trace_errors or not trace_read:
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
    args = build_parser().parse_args(argv)
    handlers = {
        "topology": _cmd_topology,
        "figure2": _cmd_figure2,
        "figure3": _cmd_figure3,
        "compare": _cmd_compare,
        "obs": _cmd_obs,
        "verify": _cmd_verify,
        "hotspot": _cmd_hotspot,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
