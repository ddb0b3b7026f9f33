"""The switch-based direct network model.

The paper (§3.1) models a network of workstations as an undirected graph
``G = (V, E)`` with ``V = V1 ∪ V2`` where ``V1`` is the set of switches and
``V2`` the set of processors.  Every processor is connected to exactly one
switch by a bidirectional channel, and switches may be connected to each
other by bidirectional channels.  A switch with ``k`` ports has degree at
most ``k``.

:class:`Network` implements this model with dense integer node ids and dense
integer channel ids so that the routing substrate and the flit-level
simulator can use flat arrays and integer bitmasks in their hot paths.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import networkx as nx

from ..errors import ConnectivityError, TopologyError
from .channels import Channel, LinkRole, NodeKind

__all__ = ["Network"]


class Network:
    """A switch-based direct network with processors attached to switches.

    Parameters
    ----------
    ports_per_switch:
        Maximum number of bidirectional channels a switch may have
        (processor links count against this budget).  The paper's
        experiments use 8-port switches.  Use ``None`` to disable the check.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(self, ports_per_switch: int | None = 8, name: str = "network") -> None:
        if ports_per_switch is not None and ports_per_switch < 1:
            raise TopologyError("ports_per_switch must be positive or None")
        self.ports_per_switch = ports_per_switch
        self.name = name
        self._kinds: list[NodeKind] = []
        self._labels: list[str] = []
        self._adjacency: list[dict[int, int]] = []  # node -> {neighbor: cid of self->neighbor}
        self._channels: list[Channel] = []
        self._label_to_node: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, label: str | None = None) -> int:
        """Add a switch vertex and return its node id."""
        return self._add_node(NodeKind.SWITCH, label)

    def add_processor(self, switch: int, label: str | None = None) -> int:
        """Add a processor vertex attached to ``switch`` and return its node id.

        The bidirectional processor/switch channel is created immediately
        because a processor must have degree exactly one.
        """
        self._require_switch(switch)
        node = self._add_node(NodeKind.PROCESSOR, label)
        self._connect_nodes(node, switch)
        return node

    def connect(self, a: int, b: int) -> tuple[int, int]:
        """Create a bidirectional channel between switches ``a`` and ``b``.

        Returns the pair of channel ids ``(cid_ab, cid_ba)``.
        """
        self._require_switch(a)
        self._require_switch(b)
        if a == b:
            raise TopologyError("self-loop channels are not allowed")
        if b in self._adjacency[a]:
            raise TopologyError(f"nodes {a} and {b} are already connected")
        return self._connect_nodes(a, b)

    def _add_node(self, kind: NodeKind, label: str | None) -> int:
        node = len(self._kinds)
        if label is None:
            prefix = "s" if kind is NodeKind.SWITCH else "p"
            label = f"{prefix}{node}"
        if label in self._label_to_node:
            raise TopologyError(f"duplicate node label {label!r}")
        self._kinds.append(kind)
        self._labels.append(label)
        self._adjacency.append({})
        self._label_to_node[label] = node
        return node

    def _connect_nodes(self, a: int, b: int) -> tuple[int, int]:
        self._check_port_budget(a)
        self._check_port_budget(b)
        role_ab, role_ba = self._link_roles(a, b)
        cid_ab = len(self._channels)
        cid_ba = cid_ab + 1
        self._channels.append(Channel(cid_ab, a, b, role_ab, cid_ba))
        self._channels.append(Channel(cid_ba, b, a, role_ba, cid_ab))
        self._adjacency[a][b] = cid_ab
        self._adjacency[b][a] = cid_ba
        return cid_ab, cid_ba

    def _link_roles(self, a: int, b: int) -> tuple[LinkRole, LinkRole]:
        ka, kb = self._kinds[a], self._kinds[b]
        if ka is NodeKind.PROCESSOR and kb is NodeKind.SWITCH:
            return LinkRole.INJECTION, LinkRole.CONSUMPTION
        if ka is NodeKind.SWITCH and kb is NodeKind.PROCESSOR:
            return LinkRole.CONSUMPTION, LinkRole.INJECTION
        if ka is NodeKind.SWITCH and kb is NodeKind.SWITCH:
            return LinkRole.INTERNAL, LinkRole.INTERNAL
        raise TopologyError("processors may not be connected to each other")

    def _check_port_budget(self, node: int) -> None:
        if self._kinds[node] is NodeKind.PROCESSOR:
            if self._adjacency[node]:
                raise TopologyError(f"processor {node} already has its single channel")
            return
        if self.ports_per_switch is not None and len(self._adjacency[node]) >= self.ports_per_switch:
            raise TopologyError(
                f"switch {node} already uses all {self.ports_per_switch} ports"
            )

    def _require_switch(self, node: int) -> None:
        self._require_node(node)
        if self._kinds[node] is not NodeKind.SWITCH:
            raise TopologyError(f"node {node} is not a switch")

    def _require_node(self, node: int) -> None:
        if not 0 <= node < len(self._kinds):
            raise TopologyError(f"node {node} does not exist")

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of vertices (switches plus processors)."""
        return len(self._kinds)

    @property
    def num_switches(self) -> int:
        """Number of switch vertices."""
        return sum(1 for k in self._kinds if k is NodeKind.SWITCH)

    @property
    def num_processors(self) -> int:
        """Number of processor vertices."""
        return sum(1 for k in self._kinds if k is NodeKind.PROCESSOR)

    @property
    def num_channels(self) -> int:
        """Number of unidirectional channels."""
        return len(self._channels)

    def nodes(self) -> range:
        """All node ids."""
        return range(len(self._kinds))

    def switches(self) -> list[int]:
        """Node ids of every switch, in creation order."""
        return [n for n, k in enumerate(self._kinds) if k is NodeKind.SWITCH]

    def processors(self) -> list[int]:
        """Node ids of every processor, in creation order."""
        return [n for n, k in enumerate(self._kinds) if k is NodeKind.PROCESSOR]

    def kind(self, node: int) -> NodeKind:
        """Kind (switch/processor) of ``node``."""
        self._require_node(node)
        return self._kinds[node]

    def is_switch(self, node: int) -> bool:
        """``True`` if ``node`` is a switch."""
        return self.kind(node) is NodeKind.SWITCH

    def is_processor(self, node: int) -> bool:
        """``True`` if ``node`` is a processor."""
        return self.kind(node) is NodeKind.PROCESSOR

    def label(self, node: int) -> str:
        """Human-readable label of ``node``."""
        self._require_node(node)
        return self._labels[node]

    def node_by_label(self, label: str) -> int:
        """Node id for a label assigned at construction time."""
        try:
            return self._label_to_node[label]
        except KeyError as exc:
            raise TopologyError(f"no node labelled {label!r}") from exc

    def degree(self, node: int) -> int:
        """Number of bidirectional channels incident to ``node``."""
        self._require_node(node)
        return len(self._adjacency[node])

    def neighbors(self, node: int) -> list[int]:
        """Neighbouring node ids of ``node`` (sorted for determinism)."""
        self._require_node(node)
        return sorted(self._adjacency[node])

    def switch_of(self, processor: int) -> int:
        """The unique switch a processor is attached to."""
        self._require_node(processor)
        if self._kinds[processor] is not NodeKind.PROCESSOR:
            raise TopologyError(f"node {processor} is not a processor")
        (switch,) = self._adjacency[processor].keys()
        return switch

    def processors_of(self, switch: int) -> list[int]:
        """Processors attached to ``switch`` (sorted)."""
        self._require_switch(switch)
        return sorted(
            n for n in self._adjacency[switch] if self._kinds[n] is NodeKind.PROCESSOR
        )

    def attached_processor(self, switch: int) -> int | None:
        """The single attached processor, or ``None``.

        Convenience accessor for the paper's configuration of exactly one
        processor per switch; raises if more than one is attached.
        """
        procs = self.processors_of(switch)
        if not procs:
            return None
        if len(procs) > 1:
            raise TopologyError(f"switch {switch} has {len(procs)} processors attached")
        return procs[0]

    # ------------------------------------------------------------------
    # Channel queries
    # ------------------------------------------------------------------
    def channels(self) -> Sequence[Channel]:
        """All unidirectional channels, indexed by ``cid``."""
        return self._channels

    def channel(self, cid: int) -> Channel:
        """Channel with identifier ``cid``."""
        if not 0 <= cid < len(self._channels):
            raise TopologyError(f"channel {cid} does not exist")
        return self._channels[cid]

    def channel_between(self, src: int, dst: int) -> Channel:
        """The unidirectional channel from ``src`` to ``dst``."""
        self._require_node(src)
        self._require_node(dst)
        try:
            return self._channels[self._adjacency[src][dst]]
        except KeyError as exc:
            raise TopologyError(f"no channel from {src} to {dst}") from exc

    def has_channel(self, src: int, dst: int) -> bool:
        """``True`` if a unidirectional channel from ``src`` to ``dst`` exists."""
        self._require_node(src)
        self._require_node(dst)
        return dst in self._adjacency[src]

    def channels_from(self, node: int) -> list[Channel]:
        """Outgoing channels of ``node``, sorted by destination id."""
        self._require_node(node)
        return [self._channels[self._adjacency[node][nbr]] for nbr in sorted(self._adjacency[node])]

    def channels_into(self, node: int) -> list[Channel]:
        """Incoming channels of ``node``, sorted by source id."""
        self._require_node(node)
        return [
            self._channels[self._channels[self._adjacency[node][nbr]].reverse_cid]
            for nbr in sorted(self._adjacency[node])
        ]

    def injection_channel(self, processor: int) -> Channel:
        """The processor-to-switch channel of ``processor``."""
        switch = self.switch_of(processor)
        return self.channel_between(processor, switch)

    def consumption_channel(self, processor: int) -> Channel:
        """The switch-to-processor channel of ``processor``."""
        switch = self.switch_of(processor)
        return self.channel_between(switch, processor)

    def switch_channels(self) -> list[Channel]:
        """All switch-to-switch channels."""
        return [c for c in self._channels if c.role is LinkRole.INTERNAL]

    # ------------------------------------------------------------------
    # Graph-level queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """``True`` if the full graph (switches and processors) is connected."""
        if self.num_nodes == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.num_nodes

    def require_connected(self) -> None:
        """Raise :class:`ConnectivityError` if the network is disconnected."""
        if not self.is_connected():
            raise ConnectivityError(f"network {self.name!r} is not connected")

    def shortest_distances_from(self, source: int) -> dict[int, int]:
        """Unweighted shortest hop distance from ``source`` to every node."""
        self._require_node(source)
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def switch_distance_matrix(self) -> dict[int, dict[int, int]]:
        """All-pairs unweighted distances over the switch-only subgraph.

        Used by the paper's selection function (priority by distance from
        a channel endpoint to the LCA).
        """
        switch_set = set(self.switches())
        matrix: dict[int, dict[int, int]] = {}
        for s in self.switches():
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in self._adjacency[u]:
                    if v in switch_set and v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            matrix[s] = dist
        return matrix

    def to_networkx(self) -> nx.Graph:
        """Export the undirected topology as a :class:`networkx.Graph`.

        Node attributes: ``kind`` and ``label``.  Edge attribute: ``cids``
        with the pair of unidirectional channel ids.
        """
        graph = nx.Graph(name=self.name)
        for node in self.nodes():
            graph.add_node(node, kind=self._kinds[node].value, label=self._labels[node])
        seen: set[tuple[int, int]] = set()
        for chan in self._channels:
            key = (min(chan.src, chan.dst), max(chan.src, chan.dst))
            if key in seen:
                continue
            seen.add(key)
            graph.add_edge(chan.src, chan.dst, cids=(chan.cid, chan.reverse_cid))
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, switches={self.num_switches}, "
            f"processors={self.num_processors}, channels={self.num_channels})"
        )

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def iter_bidirectional_links(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected link once as an ``(a, b)`` pair with ``a < b``."""
        for chan in self._channels:
            if chan.src < chan.dst:
                yield chan.src, chan.dst

    def subgraph_switch_edges(self) -> Iterable[tuple[int, int]]:
        """Yield each switch-to-switch undirected link once."""
        for a, b in self.iter_bidirectional_links():
            if self._kinds[a] is NodeKind.SWITCH and self._kinds[b] is NodeKind.SWITCH:
                yield a, b
