"""Up*/down* substrate: spanning trees, channel labelling, ancestor and
extended-ancestor relations, and root-selection heuristics.

This sub-package implements the structural machinery SPAM builds on (paper
§3.1): pick a root switch, compute a spanning tree, classify every
unidirectional channel as up/down and tree/cross, and precompute the
ancestor / extended-ancestor relations that the routing function consults.
"""

from .ancestry import Ancestry, node_mask
from .labeling import ChannelLabeling, label_channels
from .roots import (
    ROOT_STRATEGIES,
    RootSelector,
    center_root,
    first_switch_root,
    max_degree_root,
    random_root,
    select_root,
)
from .tree import SpanningTree, bfs_spanning_tree

__all__ = [
    "SpanningTree",
    "bfs_spanning_tree",
    "ChannelLabeling",
    "label_channels",
    "Ancestry",
    "node_mask",
    "RootSelector",
    "ROOT_STRATEGIES",
    "center_root",
    "max_degree_root",
    "first_switch_root",
    "random_root",
    "select_root",
]
