"""Channel dependency graphs (CDGs) and acyclicity checking.

Dally and Seitz's classic result states that a wormhole routing function is
deadlock-free if its channel dependency graph — the directed graph whose
vertices are the network's channels and whose edges connect a channel to
every channel the routing function may request while holding it — is
acyclic.  The paper's Theorem 1 (deadlock freedom of SPAM) is proven in the
companion technical report; this module provides the empirical counterpart:
it enumerates the dependency relation induced by SPAM's routing rules (or by
classic up*/down*, or by the naive minimal baseline) and checks it for
cycles on any concrete topology.

For tree-based multicast the CDG acyclicity argument alone is not sufficient
(atomic multi-channel acquisition also matters), but it is necessary: every
dependency a multicast worm can create between two channels is also created
by some unicast (the distribution tree only uses down tree channels, whose
pairwise dependencies rule 3 already induces).  The simulation-level
verification harness covers the remaining argument empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.spam import SpamRouting
from ..core.unicast import unicast_options
from ..routing.naive import NaiveMinimalRouting
from ..routing.updown import UpDownRouting

__all__ = ["ChannelDependencyGraph", "build_spam_cdg", "build_updown_cdg", "build_naive_cdg"]


@dataclass
class ChannelDependencyGraph:
    """A channel dependency graph plus convenience queries.

    ``graph`` maps every channel id to its successors, the channels it may
    request while held; both levels are insertion-ordered dicts.
    """

    graph: dict[int, dict[int, None]]
    algorithm: str
    network_name: str
    metadata: dict = field(default_factory=dict)

    @property
    def num_channels(self) -> int:
        """Number of channels (vertices)."""
        return len(self.graph)

    @property
    def num_dependencies(self) -> int:
        """Number of dependency edges."""
        return sum(len(successors) for successors in self.graph.values())

    def is_acyclic(self) -> bool:
        """``True`` when the dependency graph has no directed cycle."""
        return self.find_cycle() is None

    def find_cycle(self) -> list[tuple[int, int]] | None:
        """One dependency cycle as a list of edges, or ``None`` if acyclic:
        an iterative three-colour depth-first search in channel-id order, in
        which an edge into a channel on the current path closes a cycle."""
        graph = self.graph
        done: set[int] = set()
        for root in sorted(graph):
            if root in done:
                continue
            path, position, pending = [root], {root: 0}, [iter(graph[root])]
            while path:
                channel = next(pending[-1], None)
                if channel is None:
                    pending.pop()
                    done.add(path[-1])
                    del position[path.pop()]
                elif channel in position:
                    cycle = path[position[channel]:] + [channel]
                    return list(zip(cycle, cycle[1:]))
                elif channel not in done:
                    position[channel] = len(path)
                    path.append(channel)
                    pending.append(iter(graph[channel]))
        return None

    def summary(self) -> dict[str, object]:
        """Compact description for reports and tests."""
        return {
            "algorithm": self.algorithm,
            "network": self.network_name,
            "channels": self.num_channels,
            "dependencies": self.num_dependencies,
            "acyclic": self.is_acyclic(),
        }


def build_spam_cdg(routing: SpamRouting) -> ChannelDependencyGraph:
    """Channel dependency graph induced by SPAM's routing rules.

    For every channel ``c`` entering switch ``s`` and every possible target
    node ``t`` (any processor as a unicast destination, any switch as a
    multicast LCA), an edge is added from ``c`` to every channel SPAM may
    request at ``s`` for a worm that arrived on ``c`` heading for ``t``.
    Dependencies of the multicast distribution phase are the down-tree →
    down-tree dependencies, which are induced by targets in the subtree and
    are therefore already covered by the same enumeration.
    """
    network = routing.network
    labeling = routing.labeling
    ancestry = routing.ancestry
    graph: dict[int, dict[int, None]] = {channel.cid: {} for channel in network.channels()}
    for in_channel in network.channels():
        switch = in_channel.dst
        if not network.is_switch(switch):
            continue
        phase = routing.phase_of(in_channel)
        for target in network.nodes():
            if target == switch:
                continue
            for option in unicast_options(labeling, ancestry, switch, phase, target):
                graph[in_channel.cid][option.channel.cid] = None
    return ChannelDependencyGraph(
        graph=graph, algorithm=routing.name, network_name=network.name
    )


def build_updown_cdg(routing: UpDownRouting) -> ChannelDependencyGraph:
    """Channel dependency graph induced by classic up*/down* routing."""
    network = routing.network
    labeling = routing.labeling
    graph: dict[int, dict[int, None]] = {channel.cid: {} for channel in network.channels()}
    for in_channel in network.channels():
        switch = in_channel.dst
        if not network.is_switch(switch):
            continue
        arrived_up = labeling.is_up(in_channel)
        for destination in network.processors():
            if destination == switch:
                continue
            if arrived_up:
                for channel in labeling.up_channels_from(switch):
                    graph[in_channel.cid][channel.cid] = None
            for channel in labeling.down_channels_from(switch):
                if routing.down_reachable(channel.dst, destination):
                    graph[in_channel.cid][channel.cid] = None
    return ChannelDependencyGraph(
        graph=graph, algorithm=routing.name, network_name=network.name
    )


def build_naive_cdg(routing: NaiveMinimalRouting) -> ChannelDependencyGraph:
    """Channel dependency graph induced by naive minimal routing.

    On any topology containing a cycle of switches this graph is cyclic,
    which is exactly why the algorithm can deadlock.
    """
    network = routing.network
    graph: dict[int, dict[int, None]] = {channel.cid: {} for channel in network.channels()}
    for in_channel in network.channels():
        switch = in_channel.dst
        if not network.is_switch(switch):
            continue
        for destination in network.processors():
            dist = routing._distances(destination)
            here = dist.get(switch)
            if here is None or here == 0:
                continue
            for channel in network.channels_from(switch):
                if dist.get(channel.dst, float("inf")) < here:
                    graph[in_channel.cid][channel.cid] = None
    return ChannelDependencyGraph(
        graph=graph, algorithm=routing.name, network_name=network.name
    )
