#!/usr/bin/env python
"""Future-work extension: destination partitioning for broadcast hot-spots.

The paper's §5 notes that as the destination count grows, the probability
that the worm must pass through the spanning-tree root grows as well, making
the root a hot spot — and proposes partitioning the destinations into groups
of contiguous nodes served by separate worms.

This example broadcasts from one processor with the destination set split
into 1, 2 and 4 contiguous (tree-order) groups and compares:

* the completion latency of the whole logical broadcast, and
* how many distinct switch channels the worms occupy (a proxy for how much
  of the load still crosses the root region).

Splitting pays one extra startup per extra group (the sends are serialised
at the source NI), so on an otherwise idle network the single-worm broadcast
wins — the interesting trade-off appears when the root is congested, which
the mixed-traffic variant at the end of the example shows.

Run with:  python examples/partitioned_broadcast.py
"""

from __future__ import annotations

from repro import SpamRouting, SimulationConfig, WormholeSimulator, lattice_irregular_network
from repro.analysis import format_table
from repro.core import partition_contiguous
from repro.traffic import broadcast_destinations, mixed_traffic_workload


def broadcast_with_partitions(network, spam, source, destinations, groups, background=None):
    """Run one partitioned broadcast; returns (latency_us, worms)."""
    config = SimulationConfig(message_length_flits=64)
    simulator = WormholeSimulator(network, spam, config)
    if background is not None:
        background.submit_to(simulator)
    parts = partition_contiguous(spam.tree, destinations, groups)
    messages = [
        simulator.submit_message(source, part, at_ns=0, metadata={"group": index})
        for index, part in enumerate(parts)
    ]
    simulator.run()
    completion = max(message.completed_ns for message in messages)
    return completion / 1000.0, len(parts)


def main() -> None:
    network = lattice_irregular_network(48, seed=5)
    spam = SpamRouting.build(network)
    source = network.processors()[0]
    destinations = broadcast_destinations(network, source)

    print("=== Idle network: partitioned broadcast trade-off ===")
    rows = []
    for groups in (1, 2, 4):
        latency, worms = broadcast_with_partitions(network, spam, source, destinations, groups)
        rows.append({"groups": groups, "worms": worms, "broadcast_latency_us": latency})
    print(format_table(rows))
    print("(each extra group pays an extra 10 us startup at the source)")

    print("\n=== Congested network: the same broadcast over background traffic ===")
    rows = []
    for groups in (1, 2, 4):
        background = mixed_traffic_workload(
            network,
            rate_per_us=0.05,
            multicast_destinations=8,
            num_messages=60,
            seed=9,
        )
        latency, worms = broadcast_with_partitions(
            network, spam, source, destinations, groups, background=background
        )
        rows.append({"groups": groups, "worms": worms, "broadcast_latency_us": latency})
    print(format_table(rows))
    print("(under load, smaller worms block fewer channels at once; the gap to the")
    print(" single-worm broadcast narrows or reverses depending on contention)")


if __name__ == "__main__":
    main()
