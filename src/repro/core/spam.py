"""The SPAM routing algorithm (Single Phase Adaptive Multicast).

This module ties together the SPAM building blocks — the up*/down* spanning
tree and labelling, the ancestor/extended-ancestor relations, the unicast
routing function, the selection function and the multicast distribution
rule — into a single :class:`SpamRouting` object implementing the
:class:`~repro.routing.base.RoutingAlgorithm` interface consumed by the
flit-level simulator.

Algorithm summary (paper §3)
----------------------------
* **Unicast**: a worm uses one or more up channels, then zero or more down
  cross channels (each ending at an extended ancestor of the destination),
  then one or more down tree channels (each ending at an ancestor of the
  destination).  Routing is partially adaptive; the selection function
  prioritises the allowed channels by the distance of their endpoint to the
  target.
* **Multicast**: the worm is routed to the least common ancestor (LCA) of
  the destination set with the unicast algorithm, then splits along down
  tree channels only, acquiring all required output channels of a switch
  atomically (the simulator's OCRQ mechanism) and replicating flits
  asynchronously onto them.
"""

from __future__ import annotations

from ..errors import RoutingError
from ..spanning.ancestry import Ancestry, node_mask
from ..spanning.labeling import ChannelLabeling, label_channels
from ..spanning.roots import select_root
from ..spanning.tree import SpanningTree, bfs_spanning_tree
from ..topology.channels import Channel
from ..topology.network import Network
from .decision import RoutingDecision, all_of, one_of
from .interface import MessageLike, RoutingAlgorithm
from .multicast import MulticastPlan, build_multicast_plan, downtree_outputs
from .phases import Phase
from .selection import DistanceToTargetSelection, SelectionFunction
from .unicast import legal_next_channels

__all__ = ["SpamRouting"]


class SpamRouting(RoutingAlgorithm):
    """SPAM routing over a given network, spanning tree and selection function.

    Parameters
    ----------
    network:
        The network to route on.
    tree:
        The up*/down* spanning tree.  If omitted, a BFS tree rooted at the
        network's graph centre is used (see
        :func:`repro.spanning.roots.select_root`).
    selection:
        Selection function ordering the adaptive choices; defaults to the
        paper's distance-to-LCA priority.

    Use :meth:`SpamRouting.build` for the common "give me SPAM on this
    network" case.
    """

    name = "spam"
    supports_multicast = True

    def __init__(
        self,
        network: Network,
        tree: SpanningTree,
        selection: SelectionFunction | None = None,
    ) -> None:
        if tree.network is not network:
            raise RoutingError("spanning tree belongs to a different network")
        self.network = network
        self.tree = tree
        self.labeling: ChannelLabeling = label_channels(network, tree)
        self.ancestry: Ancestry = Ancestry(self.labeling)
        self.selection: SelectionFunction = selection or DistanceToTargetSelection(network)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: Network,
        root: int | None = None,
        root_strategy: str = "center",
        selection: SelectionFunction | None = None,
        seed: int = 0,
    ) -> "SpamRouting":
        """Build SPAM with a BFS spanning tree.

        Parameters
        ----------
        network:
            Network to route on.
        root:
            Explicit root switch; overrides ``root_strategy`` when given.
        root_strategy:
            Root-selection heuristic name (``"center"``, ``"max-degree"``,
            ``"first"`` or ``"random"``).
        selection:
            Selection function; defaults to distance-to-LCA priority.
        seed:
            Seed for the ``"random"`` root strategy.
        """
        if root is None:
            root = select_root(network, root_strategy, seed=seed)
        tree = bfs_spanning_tree(network, root)
        return cls(network, tree, selection)

    def with_selection(self, selection: SelectionFunction | None = None) -> "SpamRouting":
        """A new routing sharing this instance's network, tree, labelling and
        ancestry, with ``selection`` swapped in.

        ``__init__`` derives the labelling and ancestry purely from
        ``(network, tree)`` and never consumes selection state, so the
        skeleton is safe to share between instances: two routings built this
        way differ only in their selection function.  The sweep layer's
        per-process skeleton cache (:mod:`repro.sweeps.spec`) uses this to
        give every point that does not use the default selection a freshly
        built one, a seeded ``random`` selection included, without
        re-deriving the skeleton.
        """
        clone = self.__class__.__new__(self.__class__)
        clone.network = self.network
        clone.tree = self.tree
        clone.labeling = self.labeling
        clone.ancestry = self.ancestry
        clone.selection = selection or DistanceToTargetSelection(self.network)
        return clone

    # ------------------------------------------------------------------
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------
    def prepare(self, message: MessageLike) -> None:
        """Precompute the destination bitmask and the LCA for ``message``."""
        destinations = message.destinations
        if not destinations:
            raise RoutingError("message has no destinations")
        dest_mask = node_mask(destinations)
        lca = self.ancestry.lca(destinations)
        message.routing_data["dest_mask"] = dest_mask
        message.routing_data["lca"] = lca

    def decide(
        self,
        message: MessageLike,
        switch: int,
        in_channel: Channel | None,
    ) -> RoutingDecision:
        """SPAM routing decision at ``switch`` (see module docstring)."""
        data = message.routing_data
        if "lca" not in data:
            self.prepare(message)
        dest_mask: int = data["dest_mask"]
        lca: int = data["lca"]

        incoming_phase = Phase.UP if in_channel is None else self._phase_of(in_channel)

        # Down-tree distribution mode: entered when the header reaches the
        # LCA of the destination set, or as soon as it has used a down tree
        # channel (rule 3: only down tree channels may follow).
        if incoming_phase is Phase.DOWN_TREE or switch == lca:
            outputs = downtree_outputs(self.network, self.ancestry, switch, dest_mask)
            if not outputs:
                raise RoutingError(
                    f"no down-tree outputs at switch {switch} for destinations "
                    f"{message.destinations}"
                )
            return all_of(outputs)

        # Unicast mode towards the LCA (which is the destination processor
        # itself for a unicast message).
        options = legal_next_channels(self.labeling, self.ancestry, switch, incoming_phase, lca)
        ordered = self.selection.order(options, lca)
        return one_of([option.channel for option in ordered])

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def _phase_of(self, channel: Channel) -> Phase:
        label = self.labeling.label(channel)
        if label.is_up:
            return Phase.UP
        if label.is_down_cross:
            return Phase.DOWN_CROSS
        return Phase.DOWN_TREE

    def multicast_plan(self, source: int, destinations) -> MulticastPlan:
        """Static distribution plan (LCA and down-tree structure) for a multicast."""
        return build_multicast_plan(self.network, self.ancestry, source, list(destinations))

    def unicast_route(self, source: int, destination: int) -> list[Channel]:
        """The contention-free path of a unicast from ``source`` to ``destination``.

        The path starts with the injection channel and ends with the
        consumption channel of the destination.  It follows the selection
        function's first choice at every switch, i.e. it is the path a worm
        takes through an idle network.
        """
        if not self.network.is_processor(source):
            raise RoutingError(f"source {source} is not a processor")
        if not self.network.is_processor(destination):
            raise RoutingError(f"destination {destination} is not a processor")
        if source == destination:
            raise RoutingError("source and destination must differ")

        message = _ProbeMessage(source, (destination,))
        self.prepare(message)
        injection = self.network.injection_channel(source)
        path = [injection]
        switch = injection.dst
        in_channel: Channel | None = None
        for _ in range(4 * self.network.num_nodes):
            decision = self.decide(message, switch, in_channel)
            channel = decision.channels[0]
            path.append(channel)
            if channel.dst == destination:
                return path
            in_channel = channel
            switch = channel.dst
        raise RoutingError(
            f"unicast route from {source} to {destination} did not terminate"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpamRouting(network={self.network.name!r}, root={self.tree.root}, "
            f"selection={self.selection.name!r})"
        )


class _ProbeMessage:
    """Minimal :class:`MessageLike` used for static path probing."""

    __slots__ = ("source", "destinations", "routing_data")

    def __init__(self, source: int, destinations: tuple[int, ...]) -> None:
        self.source = source
        self.destinations = destinations
        self.routing_data: dict = {}
