"""Classic up*/down* unicast routing (Schroeder et al., Autonet).

Up*/down* routing is the substrate SPAM generalises: a legal route uses zero
or more up channels followed by zero or more down channels, and never an up
channel after a down channel.  It is deadlock-free on any topology and is
the standard deadlock-free unicast algorithm for irregular switch networks,
which is why the software (unicast-based) multicast baseline runs on top of
it.

Compared with SPAM's unicast rules, classic up*/down* does not distinguish
down tree from down cross channels; feasibility of a down move only requires
that the endpoint can still reach the destination using down channels alone.
"""

from __future__ import annotations

from collections import deque

from ..core.decision import RoutingDecision, one_of
from ..core.interface import MessageLike, RoutingAlgorithm
from ..core.phases import Phase
from ..core.selection import DistanceToTargetSelection, SelectionFunction
from ..core.unicast import RoutingOption
from ..errors import RoutingError
from ..spanning.labeling import ChannelLabeling, label_channels
from ..spanning.roots import select_root
from ..spanning.tree import SpanningTree, bfs_spanning_tree
from ..topology.channels import Channel
from ..topology.network import Network

__all__ = ["UpDownRouting"]


class UpDownRouting(RoutingAlgorithm):
    """Adaptive up*/down* unicast routing.

    Parameters
    ----------
    network:
        The network to route on.
    tree:
        Spanning tree defining the up/down orientation (BFS tree at the
        graph centre by default via :meth:`build`).
    selection:
        Selection function ordering the adaptive choices; defaults to the
        distance-to-target priority so that comparisons against SPAM are not
        confounded by the selection policy.
    """

    name = "updown"
    supports_multicast = False

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
        self.selection: SelectionFunction = selection or DistanceToTargetSelection(network)
        self._down_reach: list[int] = self._compute_down_reachability()

    @classmethod
    def build(
        cls,
        network: Network,
        root: int | None = None,
        root_strategy: str = "center",
        selection: SelectionFunction | None = None,
        seed: int = 0,
    ) -> "UpDownRouting":
        """Build up*/down* routing with a BFS spanning tree."""
        if root is None:
            root = select_root(network, root_strategy, seed=seed)
        tree = bfs_spanning_tree(network, root)
        return cls(network, tree, selection)

    # ------------------------------------------------------------------
    def _compute_down_reachability(self) -> list[int]:
        """``down_reach[u]`` = bitmask of nodes reachable from ``u`` using only
        down channels (including ``u`` itself).

        Down channels are acyclic (they strictly increase the pair
        ``(tree level, node id)`` lexicographically), so a worklist that
        re-propagates a node's set to its predecessors whenever it grows
        converges quickly.
        """
        network = self.network
        n = network.num_nodes
        reach = [1 << v for v in range(n)]
        predecessors: list[list[int]] = [[] for _ in range(n)]
        for channel in network.channels():
            if not self.labeling.is_up(channel):
                predecessors[channel.dst].append(channel.src)
        queue = deque(range(n))
        queued = [True] * n
        while queue:
            v = queue.popleft()
            queued[v] = False
            mask = reach[v]
            for pred in predecessors[v]:
                merged = reach[pred] | mask
                if merged != reach[pred]:
                    reach[pred] = merged
                    if not queued[pred]:
                        queue.append(pred)
                        queued[pred] = True
        return reach

    def down_reachable(self, from_node: int, to_node: int) -> bool:
        """``True`` if ``to_node`` is reachable from ``from_node`` using only
        down channels."""
        return bool(self._down_reach[from_node] >> to_node & 1)

    # ------------------------------------------------------------------
    def decide(
        self,
        message: MessageLike,
        switch: int,
        in_channel: Channel | None,
    ) -> RoutingDecision:
        """Up*/down* decision: any up channel while ascending, any feasible
        down channel at any time, never up after down."""
        self.validate_destinations(message)
        destination = message.destinations[0]
        phase = Phase.UP
        if in_channel is not None and not self.labeling.is_up(in_channel):
            phase = Phase.DOWN_TREE  # "down" — tree/cross distinction is irrelevant here

        options: list[RoutingOption] = []
        if phase is Phase.UP:
            for channel in self.labeling.up_channels_from(switch):
                options.append(RoutingOption(channel, Phase.UP))
        for channel in self.labeling.down_channels_from(switch):
            if self._down_reach[channel.dst] >> destination & 1:
                options.append(RoutingOption(channel, Phase.DOWN_TREE))
        if not options:
            raise RoutingError(
                f"up*/down* offers no legal channel at switch {switch} towards {destination}"
            )
        ordered = self.selection.order(options, destination)
        return one_of([option.channel for option in ordered])
