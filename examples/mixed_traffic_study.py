#!/usr/bin/env python
"""Figure 3 style study: mixed unicast/multicast traffic under load.

Generates 90 % unicast / 10 % multicast traffic with negative-binomial
arrivals in an irregular network, sweeps the average arrival rate, and
prints mean latency per multicast degree — the paper's Figure 3.  The
expected shape: latency grows with the arrival rate (towards saturation) but
is largely independent of the number of destinations per multicast.

Sized to finish in well under a minute at the smoke scale; for the paper's
configuration (128 switches, degrees 8 to 64, five rates) run
``repro-spam --scale paper figure3``.

Run with:  python examples/mixed_traffic_study.py
"""

from __future__ import annotations

from repro.analysis import series_side_by_side
from repro.experiments import Figure3Config, run_figure3
from repro.experiments.common import SCALES


def main() -> None:
    config = Figure3Config(
        network_size=32,
        multicast_degrees=(8, 16),
        arrival_rates_per_us=(0.005, 0.02, 0.05),
        scale=SCALES["smoke"],
    )
    result = run_figure3(config)

    print("Mean latency (us) vs per-processor arrival rate (messages/us)")
    print(f"{config.network_size}-switch irregular network, 90% unicast / 10% multicast\n")
    print(series_side_by_side(result))

    lows = [series.points[0].mean for series in result.series]
    highs = [series.points[-1].mean for series in result.series]
    print(f"\nlatency at the lowest rate:  {min(lows):.1f} - {max(lows):.1f} us")
    print(f"latency at the highest rate: {min(highs):.1f} - {max(highs):.1f} us")
    print("paper's observation: the curves rise with load but stay close together —")
    print("latency is largely independent of the multicast degree.")


if __name__ == "__main__":
    main()
