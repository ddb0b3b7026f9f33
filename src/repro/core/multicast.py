"""The SPAM multicast routing function (paper §3.2).

A multicast message is first routed to the least common ancestor (LCA) of
its destination set using the unicast algorithm, after which all routing is
restricted to down tree channels; the worm splits into a multi-head worm at
the LCA (and possibly again further down) so that every destination receives
the message in a single worm.

The functions here are pure with respect to the network/labelling: given a
switch and a destination bitmask they return the set of down tree channels a
header must acquire at that switch.  :class:`MulticastPlan` additionally
materialises the complete distribution tree below the LCA, which is used by
the examples, by tests and by the analysis utilities (e.g. counting the
branch channels a multicast occupies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import RoutingError, WorkloadError
from ..spanning.ancestry import Ancestry, node_mask
from ..topology.channels import Channel
from ..topology.network import Network

__all__ = ["downtree_outputs", "MulticastPlan", "build_multicast_plan", "normalize_destinations"]


def normalize_destinations(
    network: Network, source: int | None, destinations: Iterable[int]
) -> tuple[int, ...]:
    """Validate and normalise a destination collection.

    Duplicates are removed, ordering is normalised to ascending node id and
    every destination must be a processor distinct from the source.
    """
    unique = sorted(set(destinations))
    if not unique:
        raise WorkloadError("a multicast needs at least one destination")
    for dest in unique:
        if not network.is_processor(dest):
            raise WorkloadError(f"destination {dest} is not a processor")
        if source is not None and dest == source:
            raise WorkloadError("the source cannot be one of the destinations")
    return tuple(unique)


def downtree_outputs(
    network: Network,
    ancestry: Ancestry,
    switch: int,
    destination_mask: int,
) -> list[Channel]:
    """Down tree channels a multicast header must acquire at ``switch``.

    One output channel is required per tree child of ``switch`` whose subtree
    contains at least one destination; if the processor attached to
    ``switch`` is itself a destination, its consumption channel is required
    as well (processors are tree children of their switch, so this falls out
    of the same rule).

    The returned list is sorted by channel id for determinism.
    """
    tree = ancestry.tree
    outputs: list[Channel] = []
    for child in tree.children(switch):
        if ancestry.subtree_mask(child) & destination_mask:
            outputs.append(network.channel_between(switch, child))
    outputs.sort(key=lambda channel: channel.cid)
    return outputs


@dataclass(frozen=True)
class MulticastPlan:
    """The static distribution structure of one SPAM multicast.

    Attributes
    ----------
    source:
        Source processor.
    destinations:
        Normalised destination processors.
    lca:
        Least common ancestor of the destinations in the spanning tree.  For
        a single destination this is the destination processor itself and
        the plan degenerates to a unicast.
    branch_outputs:
        Mapping from each switch of the distribution tree (the LCA and every
        switch below it that the worm traverses) to the down tree channels
        acquired there.
    branch_channels:
        Every down tree channel of the distribution tree, in breadth-first
        order from the LCA.
    """

    source: int
    destinations: tuple[int, ...]
    lca: int
    branch_outputs: dict[int, tuple[Channel, ...]] = field(default_factory=dict)
    branch_channels: tuple[Channel, ...] = ()

    @property
    def destination_mask(self) -> int:
        """Bitmask over the destination processors."""
        return node_mask(self.destinations)

    @property
    def is_unicast(self) -> bool:
        """``True`` when the plan has exactly one destination."""
        return len(self.destinations) == 1

    @property
    def split_switches(self) -> list[int]:
        """Switches at which the worm splits into more than one head."""
        return sorted(s for s, outs in self.branch_outputs.items() if len(outs) > 1)


def build_multicast_plan(
    network: Network,
    ancestry: Ancestry,
    source: int,
    destinations: Sequence[int],
) -> MulticastPlan:
    """Compute the LCA and the full down-tree distribution structure.

    The unicast prefix (source to LCA) is adaptive and therefore not part of
    the static plan; only the deterministic down-tree portion is enumerated.
    """
    dests = normalize_destinations(network, source, destinations)
    if not network.is_processor(source):
        raise WorkloadError(f"source {source} is not a processor")
    lca = ancestry.lca(dests)
    dest_mask = node_mask(dests)

    branch_outputs: dict[int, tuple[Channel, ...]] = {}
    branch_channels: list[Channel] = []
    if len(dests) == 1:
        # Unicast: no splitting, the "distribution tree" is the tree path
        # from the destination's switch down to the destination, which the
        # simulator derives on the fly; keep the plan minimal.
        return MulticastPlan(source=source, destinations=dests, lca=lca)

    if not network.is_switch(lca):
        raise RoutingError(
            f"LCA {lca} of a multi-destination multicast must be a switch"
        )
    frontier = [lca]
    while frontier:
        switch = frontier.pop(0)
        outputs = downtree_outputs(network, ancestry, switch, dest_mask)
        if not outputs:
            raise RoutingError(
                f"switch {switch} is on the distribution tree but has no outputs"
            )
        branch_outputs[switch] = tuple(outputs)
        for channel in outputs:
            branch_channels.append(channel)
            if network.is_switch(channel.dst):
                frontier.append(channel.dst)
    return MulticastPlan(
        source=source,
        destinations=dests,
        lca=lca,
        branch_outputs=branch_outputs,
        branch_channels=tuple(branch_channels),
    )
