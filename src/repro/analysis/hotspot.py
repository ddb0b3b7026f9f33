"""Static hot-spot analysis of multicast distribution trees.

The paper's §5 observes that "as the number of destinations increases, the
probability that the worm must pass through the root of the underlying
spanning tree increases, resulting in potential hot-spot effects at the root
... an inherent feature of the up*/down* routing algorithm".

This module quantifies that effect *statically* (without running the
simulator): given a routing configuration and a collection of multicasts, it
counts how many distribution trees cross each channel and each switch, and
how often the spanning-tree root is involved.  The static view complements
the simulator's measured channel-utilisation statistics and is what the
destination-partitioning extension is evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.multicast import build_multicast_plan
from ..core.spam import SpamRouting
from ..traffic.patterns import uniform_destinations, uniform_source

__all__ = ["HotspotReport", "analyze_multicast_load", "root_traversal_probability"]


@dataclass
class HotspotReport:
    """Static load statistics over a set of multicast distribution trees.

    Attributes
    ----------
    multicasts:
        Number of multicasts analysed.
    channel_load:
        Mapping ``cid -> number of distribution trees using that channel``.
    switch_load:
        Mapping ``switch -> number of distribution trees splitting or
        forwarding at that switch`` (the LCA and every switch below it).
    root_traversals:
        Number of multicasts whose distribution tree includes the spanning
        tree root (i.e. whose LCA *is* the root).
    """

    multicasts: int = 0
    channel_load: dict[int, int] = field(default_factory=dict)
    switch_load: dict[int, int] = field(default_factory=dict)
    root_traversals: int = 0

    @property
    def root_traversal_fraction(self) -> float:
        """Fraction of multicasts whose LCA is the spanning-tree root."""
        if self.multicasts == 0:
            return 0.0
        return self.root_traversals / self.multicasts

def analyze_multicast_load(
    routing: SpamRouting,
    multicasts: Iterable[tuple[int, Sequence[int]]],
) -> HotspotReport:
    """Accumulate distribution-tree load over ``(source, destinations)`` pairs."""
    report = HotspotReport()
    root = routing.tree.root
    for source, destinations in multicasts:
        plan = build_multicast_plan(routing.network, routing.ancestry, source, list(destinations))
        report.multicasts += 1
        if plan.lca == root:
            report.root_traversals += 1
        for switch in plan.branch_outputs:
            report.switch_load[switch] = report.switch_load.get(switch, 0) + 1
        for channel in plan.branch_channels:
            report.channel_load[channel.cid] = report.channel_load.get(channel.cid, 0) + 1
    return report


def root_traversal_probability(
    routing: SpamRouting,
    num_destinations: int,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Estimate the probability that a random multicast's LCA is the root.

    This is the quantity behind the paper's §5 hot-spot concern: it grows
    quickly with the number of destinations (for a broadcast it is 1 by
    definition unless the root has a single child).
    """
    rng = np.random.default_rng(seed)
    network = routing.network
    pairs = []
    for _ in range(samples):
        source = uniform_source(network, rng)
        destinations = uniform_destinations(
            network, source, min(num_destinations, network.num_processors - 1), rng
        )
        pairs.append((source, destinations))
    report = analyze_multicast_load(routing, pairs)
    return report.root_traversal_fraction
