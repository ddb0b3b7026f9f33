"""Routing-algorithm interface shared by SPAM and the baseline algorithms.

The flit-level simulator is routing-algorithm agnostic: it hands every
arriving header to a :class:`RoutingAlgorithm` and receives a
:class:`~repro.core.decision.RoutingDecision` back.  The algorithm may stash
per-message state (for SPAM: the destination bitmask and the LCA) in the
message's ``routing_data`` dictionary during :meth:`RoutingAlgorithm.prepare`.

Keeping this interface independent of the simulator lets the verification
utilities drive the same algorithms over the static topology (to enumerate
the channel dependency relation) and lets tests exercise routing logic
without running a simulation.
"""

from __future__ import annotations

import abc
from typing import Protocol, Sequence, runtime_checkable

from .decision import RoutingDecision
from ..topology.channels import Channel

__all__ = ["MessageLike", "RoutingAlgorithm"]


@runtime_checkable
class MessageLike(Protocol):
    """The subset of the simulator's message object routing algorithms see."""

    #: Source processor node id.
    source: int
    #: Destination processor node ids (one entry for a unicast).
    destinations: tuple[int, ...]
    #: Scratch space owned by the routing algorithm.
    routing_data: dict


class RoutingAlgorithm(abc.ABC):
    """Abstract wormhole routing algorithm.

    Subclasses must be deterministic given the message and the incoming
    channel (any randomness must come from an explicitly seeded selection
    function) so that simulations are reproducible.
    """

    #: Short machine-readable name used in reports and benchmark labels.
    name: str = "abstract"

    #: Whether the algorithm can deliver a message to several destinations
    #: with a single worm.  Algorithms with ``False`` here are only handed
    #: unicast messages; multi-destination traffic must be decomposed by a
    #: software scheme such as
    #: :class:`repro.routing.unicast_multicast.UnicastMulticastScheduler`.
    supports_multicast: bool = False

    def prepare(self, message: MessageLike) -> None:
        """Attach per-message routing state before injection (optional)."""

    @abc.abstractmethod
    def decide(
        self,
        message: MessageLike,
        switch: int,
        in_channel: Channel | None,
    ) -> RoutingDecision:
        """Routing decision for ``message``'s header arriving at ``switch``.

        Parameters
        ----------
        message:
            The message being routed.
        switch:
            The switch at which the header has just arrived.
        in_channel:
            The channel on which the header arrived, or ``None`` when the
            header is at the source's switch having just been injected
            (the injection channel is implicit; it is always an up channel).

        Returns
        -------
        RoutingDecision
            Either an ordered one-of candidate list or an all-of channel set.
        """

    def validate_destinations(self, message: MessageLike) -> None:
        """Reject messages the algorithm cannot route (default: multicast)."""
        if len(message.destinations) > 1 and not self.supports_multicast:
            raise NotImplementedError(
                f"{self.name} does not support multi-destination messages"
            )
