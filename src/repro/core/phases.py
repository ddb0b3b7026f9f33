"""Routing phases of a SPAM worm.

A SPAM route uses one or more channels in the up sub-network, followed by
zero or more down cross channels, followed by one or more down tree channels
(paper §3.1).  Once a worm has used a down cross channel it may not use an
up channel again, and once it has used a down tree channel it may use only
down tree channels.

The phase of a worm at a router is fully determined by the label of the
channel on which its header entered the router, so the simulator does not
need to carry any additional per-worm phase state; this module provides the
phases and the legality relation between them for documentation,
verification and testing purposes.
"""

from __future__ import annotations

import enum

__all__ = ["Phase", "may_follow"]


class Phase(enum.Enum):
    """Position of a worm within the up → down-cross → down-tree ordering."""

    #: The worm has used only up channels so far (this is also the phase of a
    #: freshly injected worm, because the injection channel is an up channel).
    UP = "up"
    #: The worm has used at least one down cross channel (and no down tree
    #: channel yet).
    DOWN_CROSS = "down-cross"
    #: The worm has used at least one down tree channel; only down tree
    #: channels may follow.
    DOWN_TREE = "down-tree"


#: Phase ordering used by :func:`may_follow`.
_ORDER = {Phase.UP: 0, Phase.DOWN_CROSS: 1, Phase.DOWN_TREE: 2}


def may_follow(current: Phase, nxt: Phase) -> bool:
    """``True`` when a worm in phase ``current`` may continue in phase ``nxt``.

    Phases are monotonically non-decreasing along a legal route; in addition
    a worm may not "skip back", e.g. a worm in the down-tree phase may only
    remain in the down-tree phase.
    """
    return _ORDER[nxt] >= _ORDER[current]
