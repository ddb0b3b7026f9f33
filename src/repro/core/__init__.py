"""The paper's primary contribution: SPAM (Single Phase Adaptive Multicast).

Public entry points
-------------------
* :class:`~repro.core.spam.SpamRouting` — the routing algorithm, built from a
  network (``SpamRouting.build(network)``) and consumed by the simulator.
* :func:`~repro.core.multicast.build_multicast_plan` /
  :class:`~repro.core.multicast.MulticastPlan` — static analysis of one
  multicast's LCA and down-tree distribution structure.
* :mod:`~repro.core.selection` — selection functions (the paper's
  distance-to-LCA priority plus ablation alternatives).
* :mod:`~repro.core.partition` — the destination-partitioning extension from
  the paper's future-work section.
"""

from .decision import DecisionMode, RoutingDecision, all_of, one_of
from .interface import MessageLike, RoutingAlgorithm
from .multicast import (
    MulticastPlan,
    build_multicast_plan,
    downtree_outputs,
    normalize_destinations,
)
from .partition import (
    PARTITION_STRATEGIES,
    partition_by_subtree,
    partition_contiguous,
    partition_destinations,
    partition_random,
)
from .phases import Phase, may_follow
from .selection import (
    SELECTION_STRATEGIES,
    DistanceToTargetSelection,
    FirstAllowedSelection,
    RandomSelection,
    SelectionFunction,
    make_selection,
)
from .spam import SpamRouting
from .unicast import RoutingOption, legal_next_channels, unicast_options

__all__ = [
    "SpamRouting",
    "RoutingAlgorithm",
    "MessageLike",
    "RoutingDecision",
    "DecisionMode",
    "one_of",
    "all_of",
    "Phase",
    "may_follow",
    "RoutingOption",
    "unicast_options",
    "legal_next_channels",
    "MulticastPlan",
    "build_multicast_plan",
    "downtree_outputs",
    "normalize_destinations",
    "SelectionFunction",
    "DistanceToTargetSelection",
    "FirstAllowedSelection",
    "RandomSelection",
    "make_selection",
    "SELECTION_STRATEGIES",
    "partition_destinations",
    "partition_contiguous",
    "partition_by_subtree",
    "partition_random",
    "PARTITION_STRATEGIES",
]
