"""Destination partitioning (the paper's §5 future-work extension).

The paper observes that as the number of destinations grows, the probability
that the worm must pass through the root of the spanning tree grows as well,
creating a potential hot spot.  The proposed mitigation is to "partition the
destinations into groups of contiguous nodes and send separate tree-based
multicasts to each of these groups".

The natural notion of contiguity for a tree-based scheme is adjacency in
the depth-first traversal order of the spanning tree: destinations that are
consecutive in DFS order share deep common ancestors, so each group's LCA
sits low in the tree and the per-group worms avoid the root whenever the
group is confined to one subtree.  :func:`partition_contiguous` cuts that
order into groups.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError, WorkloadError
from ..spanning.tree import SpanningTree

__all__ = ["dfs_order", "partition_contiguous"]


def dfs_order(tree: SpanningTree) -> dict[int, int]:
    """Position of every node in a deterministic depth-first preorder walk."""
    order: dict[int, int] = {}
    stack = [tree.root]
    index = 0
    while stack:
        node = stack.pop()
        order[node] = index
        index += 1
        # Reversed so that the smallest-id child is visited first.
        stack.extend(reversed(tree.children(node)))
    return order


def partition_contiguous(
    tree: SpanningTree, destinations: Sequence[int], groups: int
) -> list[list[int]]:
    """Split destinations into ``groups`` contiguous chunks of DFS order.

    The destinations are sorted by their DFS-preorder position and cut into
    chunks of (nearly) equal size.  Every chunk is therefore a set of nodes
    that are contiguous in the tree walk — the paper's "groups of contiguous
    nodes".
    """
    if groups < 1:
        raise ConfigurationError("number of groups must be positive")
    if not destinations:
        raise WorkloadError("cannot partition an empty destination set")
    order = dfs_order(tree)
    ranked = sorted(destinations, key=lambda node: order[node])
    return _chunk(ranked, groups)


def _chunk(ordered: list[int], groups: int) -> list[list[int]]:
    groups = min(groups, len(ordered))
    base, extra = divmod(len(ordered), groups)
    chunks: list[list[int]] = []
    start = 0
    for index in range(groups):
        size = base + (1 if index < extra else 0)
        chunks.append(ordered[start : start + size])
        start += size
    return chunks
