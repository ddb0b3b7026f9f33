"""Spanning-tree construction for the up*/down* partition.

Following Schroeder et al.'s up*/down* scheme (and the paper's §3.1), an
arbitrary switch is selected as the *root* and a spanning tree of the whole
network is computed with respect to that root.  All processors are leaves of
this tree because they have degree one.

The default construction is breadth-first search with deterministic
neighbour ordering (ascending node id), which reproduces the paper's
Figure 1 tree when rooted at vertex 1.  Explicit parent maps are also
supported so that the effect of spanning-tree choice (a future-work item of
the paper) can be studied.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from ..errors import SpanningTreeError
from ..topology.network import Network

__all__ = ["SpanningTree", "bfs_spanning_tree"]


class SpanningTree:
    """A rooted spanning tree of a :class:`~repro.topology.network.Network`.

    Parameters
    ----------
    network:
        The network the tree spans.
    root:
        Node id of the root switch.
    parent:
        Mapping from every non-root node to its tree parent.  Every
        ``(child, parent)`` pair must be an edge of the network, and every
        node of the network must be reachable from the root through the
        parent map.
    """

    def __init__(self, network: Network, root: int, parent: Mapping[int, int]) -> None:
        if not network.is_switch(root):
            raise SpanningTreeError(f"root {root} must be a switch")
        self.network = network
        self.root = root
        self._parent = dict(parent)
        self._children: dict[int, list[int]] = {node: [] for node in network.nodes()}
        self._depth: dict[int, int] = {}
        self._validate_and_index()

    # ------------------------------------------------------------------
    def _validate_and_index(self) -> None:
        network = self.network
        if self.root in self._parent:
            raise SpanningTreeError("root must not have a parent")
        expected = network.num_nodes - 1
        if len(self._parent) != expected:
            raise SpanningTreeError(
                f"parent map covers {len(self._parent)} nodes, expected {expected}"
            )
        for child, parent in self._parent.items():
            if not network.has_channel(parent, child):
                raise SpanningTreeError(
                    f"tree edge ({parent}, {child}) is not a channel of the network"
                )
            self._children[parent].append(child)
        for children in self._children.values():
            children.sort()
        # Depth assignment doubles as a reachability / acyclicity check.
        self._depth[self.root] = 0
        queue = deque([self.root])
        visited = 1
        while queue:
            u = queue.popleft()
            for v in self._children[u]:
                if v in self._depth:
                    raise SpanningTreeError(f"node {v} appears twice in the tree")
                self._depth[v] = self._depth[u] + 1
                visited += 1
                queue.append(v)
        if visited != network.num_nodes:
            raise SpanningTreeError("parent map does not span the network")

    # ------------------------------------------------------------------
    def parent(self, node: int) -> int | None:
        """Tree parent of ``node``, or ``None`` for the root."""
        if node == self.root:
            return None
        try:
            return self._parent[node]
        except KeyError as exc:
            raise SpanningTreeError(f"node {node} is not in the tree") from exc

    def children(self, node: int) -> Sequence[int]:
        """Tree children of ``node``, sorted by node id."""
        try:
            return tuple(self._children[node])
        except KeyError as exc:
            raise SpanningTreeError(f"node {node} is not in the tree") from exc

    def depth(self, node: int) -> int:
        """Distance (in tree edges) from the root to ``node``."""
        try:
            return self._depth[node]
        except KeyError as exc:
            raise SpanningTreeError(f"node {node} is not in the tree") from exc

    def level(self, node: int) -> int:
        """Alias for :meth:`depth` matching the paper's terminology."""
        return self.depth(node)

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self._depth.values())

    def is_tree_edge(self, a: int, b: int) -> bool:
        """``True`` if the undirected edge ``{a, b}`` belongs to the tree."""
        return self._parent.get(a) == b or self._parent.get(b) == a

    def path_to_root(self, node: int) -> list[int]:
        """The node sequence from ``node`` up to (and including) the root."""
        path = [node]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        return path

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """``True`` if ``ancestor`` lies on the tree path from the root to ``node``.

        A node is considered an ancestor of itself, matching the routing
        rules' "ancestor of the destination" test for the final consumption
        channel (whose endpoint is the destination itself).
        """
        current = node
        depth_target = self.depth(ancestor)
        while self.depth(current) > depth_target:
            current = self._parent[current]
        return current == ancestor

    def lowest_common_ancestor(self, nodes: Iterable[int]) -> int:
        """The deepest node that is an ancestor of every node in ``nodes``.

        For a single node the LCA is the node itself, so SPAM's multicast
        algorithm degenerates to the unicast algorithm exactly as described
        in the paper.
        """
        iterator = iter(nodes)
        try:
            current = next(iterator)
        except StopIteration:
            raise SpanningTreeError("LCA of an empty node set is undefined") from None
        for node in iterator:
            current = self._lca_pair(current, node)
        return current

    def _lca_pair(self, a: int, b: int) -> int:
        da, db = self.depth(a), self.depth(b)
        while da > db:
            a = self._parent[a]
            da -= 1
        while db > da:
            b = self._parent[b]
            db -= 1
        while a != b:
            a = self._parent[a]
            b = self._parent[b]
        return a

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanningTree(root={self.root}, nodes={self.network.num_nodes})"


def bfs_spanning_tree(network: Network, root: int) -> SpanningTree:
    """Breadth-first spanning tree rooted at ``root``.

    Neighbours are explored in ascending node-id order, which makes the
    construction deterministic and reproduces the paper's Figure 1 tree.
    """
    network.require_connected()
    parent: dict[int, int] = {}
    visited = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in network.neighbors(u):
            if v not in visited:
                visited.add(v)
                parent[v] = u
                queue.append(v)
    return SpanningTree(network, root, parent)
