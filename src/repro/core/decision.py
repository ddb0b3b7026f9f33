"""Routing decisions returned by routing algorithms to the simulator.

A wormhole router asks the routing algorithm what to do with an incoming
header.  The answer is either

* **one-of** — an ordered list of candidate output channels of which exactly
  one must be acquired (the adaptive unicast portion of a SPAM route, or any
  hop of a plain unicast algorithm), or
* **all-of** — a set of output channels that must *all* be acquired
  atomically before the header may advance (the tree-distribution portion of
  a SPAM multicast, where the worm replicates onto several branches), or
* **deliver-only** — the header has reached a router whose only remaining
  obligation is local delivery; this is expressed as an all-of decision whose
  channel set contains only consumption channels (it is not a separate mode).

Keeping the decision as plain data (rather than having the routing algorithm
manipulate router state directly) keeps the routing algorithms trivially
testable without a simulator and lets the verification utilities enumerate
the full routing relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import RoutingError
from ..topology.channels import Channel

__all__ = ["DecisionMode", "RoutingDecision", "one_of", "all_of"]


class DecisionMode(enum.Enum):
    """How the listed channels must be interpreted."""

    #: Acquire exactly one of the listed channels; the list is ordered by
    #: decreasing preference (the selection function has already been applied).
    ONE_OF = "one-of"
    #: Acquire all of the listed channels atomically (multi-head replication).
    ALL_OF = "all-of"


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """A routing decision for one header at one router.

    Attributes
    ----------
    mode:
        :class:`DecisionMode.ONE_OF` or :class:`DecisionMode.ALL_OF`.
    channels:
        The candidate (one-of) or required (all-of) output channels.
    """

    mode: DecisionMode
    channels: tuple[Channel, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.channels:
            raise RoutingError("a routing decision must contain at least one channel")
        if self.mode is DecisionMode.ALL_OF:
            cids = [c.cid for c in self.channels]
            if len(set(cids)) != len(cids):
                raise RoutingError("an all-of decision may not repeat a channel")

    @property
    def channel_ids(self) -> tuple[int, ...]:
        """The ``cid`` values of the decision's channels, in order."""
        return tuple(c.cid for c in self.channels)

    def __len__(self) -> int:
        return len(self.channels)


def one_of(channels: list[Channel] | tuple[Channel, ...]) -> RoutingDecision:
    """Build a one-of decision from an ordered candidate list."""
    return RoutingDecision(DecisionMode.ONE_OF, tuple(channels))


def all_of(channels: list[Channel] | tuple[Channel, ...]) -> RoutingDecision:
    """Build an all-of decision from a channel set."""
    return RoutingDecision(DecisionMode.ALL_OF, tuple(channels))
