#!/usr/bin/env python
"""Figure 2 style study: latency versus number of destinations.

Runs single SPAM multicasts with an increasing number of destinations in a
paper-style irregular network and prints the latency curve, demonstrating
the paper's headline result that latency is essentially independent of the
number of destinations (because all destinations are reached by one worm
with a single startup).

The sweep executes through the ``repro.sweeps`` orchestrator against a
temporary content-addressed result store, so the example also demonstrates
the warm-cache path: the second run computes nothing and reassembles the
identical figure from stored rows (see ``docs/sweeps.md``).

The network size and sample counts are reduced relative to the paper so the
example finishes in seconds; for the paper's configuration (128 and 256
switches) run ``repro-spam --scale paper figure2``.

Run with:  python examples/single_multicast_sweep.py [num_switches]
"""

from __future__ import annotations

import sys
import tempfile

from repro.analysis import series_side_by_side, software_multicast_lower_bound_us
from repro.experiments import Figure2Config
from repro.experiments.common import SCALES
from repro.experiments.figure2 import figure2_result_from_points, figure2_specs
from repro.sweeps import ResultStore, run_sweep


def main() -> None:
    num_switches = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    config = Figure2Config(network_sizes=(num_switches,), scale=SCALES["smoke"])
    specs = figure2_specs(config)

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        cold = run_sweep(specs, store=store)
        result = figure2_result_from_points(config, cold.results)

        print(f"Latency vs number of destinations ({num_switches}-switch irregular network)")
        print(series_side_by_side(result))
        print(f"\nsweep (cold): {cold.summary()}")

        # Re-running the identical spec list touches no simulator: every
        # point is a content-addressed cache hit reassembled from the store.
        warm = run_sweep(specs, store=ResultStore(tmp))
        assert warm.computed == 0, "warm-cache run must not recompute anything"
        assert [r.latencies_us for r in warm.results] == [
            r.latencies_us for r in cold.results
        ], "stored rows must reproduce the figure bit-identically"
        print(f"sweep (warm): {warm.summary()} — bit-identical figure from the store")

    series = result.series[0]
    flat_spread = series.spread()
    print(f"\nspread of the curve (max - min latency): {flat_spread:.2f} us")
    print("paper's observation: the curve is essentially flat — a single worm and a")
    print("single startup reach any number of destinations.")

    broadcast = series.points[-1]
    bound = software_multicast_lower_bound_us(int(broadcast.x))
    print(
        f"\nbroadcast to {int(broadcast.x)} destinations: {broadcast.mean:.2f} us measured vs "
        f"{bound:.1f} us software lower bound ({bound / broadcast.mean:.1f}x)"
    )


if __name__ == "__main__":
    main()
