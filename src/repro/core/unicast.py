"""The SPAM unicast routing function (paper §3.1).

A worm is routed through one or more up channels, followed by zero or more
down cross channels, followed by one or more down tree channels.  Routers
compute the set of allowable outgoing channels from the label of the channel
on which the header arrived and the (extended-)ancestor relations:

1. if the incoming header enters the router on an up channel, any outgoing
   up channel may be used;
2. if the incoming header enters on an up channel or a down cross channel,
   any outgoing down cross channel may be used if its endpoint is an
   extended ancestor of the destination;
3. in all cases, a down tree channel may be used if its endpoint is an
   ancestor of the destination.

This module implements the *routing function* only — the enumeration of
allowable channels.  Choosing among them is the job of the selection
functions in :mod:`repro.core.selection`, and acquiring them at run time is
the job of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RoutingError
from ..spanning.ancestry import Ancestry
from ..spanning.labeling import ChannelLabeling
from ..topology.channels import Channel
from .phases import Phase

__all__ = ["RoutingOption", "unicast_options", "legal_next_channels"]


@dataclass(frozen=True, slots=True)
class RoutingOption:
    """One allowable outgoing channel together with the phase it leads to."""

    channel: Channel
    next_phase: Phase


def unicast_options(
    labeling: ChannelLabeling,
    ancestry: Ancestry,
    node: int,
    incoming_phase: Phase,
    target: int,
) -> list[RoutingOption]:
    """All channels the SPAM routing function permits at ``node``.

    Parameters
    ----------
    labeling:
        Channel labelling of the network.
    ancestry:
        Precomputed ancestor / extended-ancestor relations.
    node:
        The switch currently holding the header.
    incoming_phase:
        Phase implied by the channel on which the header entered ``node``
        (:data:`Phase.UP` for a freshly injected worm, because injection
        channels are up channels).
    target:
        The node the worm is being routed to.  For a unicast message this is
        the destination processor; for the unicast prefix of a multicast it
        is the destination set's least common ancestor.

    Returns
    -------
    list[RoutingOption]
        Unordered list of allowable channels (the selection function imposes
        the order).  The list is guaranteed to be non-empty whenever
        ``node != target`` and the network is connected; an empty result
        indicates an internal inconsistency and is reported by
        :func:`legal_next_channels`.
    """
    options: list[RoutingOption] = []
    target_anc_mask = ancestry.ancestor_mask(target)
    target_ext_mask = ancestry.extended_ancestor_mask(target)

    # Rule 1: up channels are allowed while still in the up phase.
    if incoming_phase is Phase.UP:
        for channel in labeling.up_channels_from(node):
            options.append(RoutingOption(channel, Phase.UP))

    # Rule 2: down cross channels whose endpoint is an extended ancestor of
    # the target are allowed from the up phase or the down-cross phase.
    if incoming_phase is not Phase.DOWN_TREE:
        for channel in labeling.down_cross_channels_from(node):
            if target_ext_mask >> channel.dst & 1:
                options.append(RoutingOption(channel, Phase.DOWN_CROSS))

    # Rule 3: down tree channels whose endpoint is an ancestor of the target
    # are allowed in every phase.
    for channel in labeling.down_tree_channels_from(node):
        if target_anc_mask >> channel.dst & 1:
            options.append(RoutingOption(channel, Phase.DOWN_TREE))

    return options


def legal_next_channels(
    labeling: ChannelLabeling,
    ancestry: Ancestry,
    node: int,
    incoming_phase: Phase,
    target: int,
) -> list[RoutingOption]:
    """Like :func:`unicast_options` but raises when no channel is allowed.

    The SPAM routing function always offers at least one channel while the
    header has not reached its target (up channels exist everywhere except
    the root, and the root is an ancestor of every node), so an empty result
    here indicates a disconnected network or an inconsistent labelling.
    """
    if node == target:
        raise RoutingError(f"header is already at its target {target}")
    options = unicast_options(labeling, ancestry, node, incoming_phase, target)
    if not options:
        raise RoutingError(
            f"SPAM routing function offers no legal channel at node {node} "
            f"(phase {incoming_phase.value}) towards {target}"
        )
    return options
