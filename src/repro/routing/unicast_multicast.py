"""Unicast-based (software) multicast — the baseline SPAM is compared against.

Without hardware multicast support, a message is delivered to ``d``
destinations by a sequence of unicast communication *phases*: in every phase
each processor that already holds the message forwards it to one processor
that does not.  The number of phases is therefore at least
``ceil(log2(d + 1))`` (McKinley et al.), and each phase pays the full
communication startup latency — which the paper notes "can be several orders
of magnitude larger than the actual network latency".

This module provides

* :func:`binomial_schedule` — the forwarding schedule of the classic
  binomial-tree software multicast;
* :class:`UnicastMulticastScheduler` — an executable version of the scheme:
  given a delivery callback from the simulator it injects the follow-on
  unicasts, so the baseline's end-to-end latency can be *measured* on the
  same flit-level simulator as SPAM (not just bounded analytically);
* :func:`minimum_phases` — the ``ceil(log2(d+1))`` lower bound used by the
  analytic comparison in :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import WorkloadError

__all__ = [
    "minimum_phases",
    "binomial_schedule",
    "ForwardingStep",
    "UnicastMulticastScheduler",
]


def minimum_phases(num_destinations: int) -> int:
    """Lower bound on the number of unicast phases to reach ``d`` destinations.

    ``ceil(log2(d + 1))`` — in each phase the number of informed processors
    can at most double (McKinley et al., IEEE TPDS 1994).
    """
    if num_destinations < 0:
        raise WorkloadError("number of destinations cannot be negative")
    if num_destinations == 0:
        return 0
    return math.ceil(math.log2(num_destinations + 1))


@dataclass(frozen=True, slots=True)
class ForwardingStep:
    """One unicast of the software multicast schedule.

    Attributes
    ----------
    phase:
        Zero-based communication phase index.
    sender:
        Processor that forwards the message (the source, or a destination
        that received it in an earlier phase).
    recipient:
        Processor that receives the message in this phase.
    """

    phase: int
    sender: int
    recipient: int


def binomial_schedule(source: int, destinations: Sequence[int]) -> list[ForwardingStep]:
    """Binomial-tree forwarding schedule reaching all destinations.

    In phase ``p`` the ``2**p`` processors that hold the message (source plus
    the recipients of earlier phases, in schedule order) each forward to one
    new destination.  The schedule achieves the ``ceil(log2(d+1))`` phase
    lower bound.
    """
    if source in destinations:
        raise WorkloadError("the source cannot appear among the destinations")
    if len(set(destinations)) != len(destinations):
        raise WorkloadError("destinations must be distinct")
    holders = [source]
    remaining = list(destinations)
    steps: list[ForwardingStep] = []
    phase = 0
    while remaining:
        senders = list(holders)
        for sender in senders:
            if not remaining:
                break
            recipient = remaining.pop(0)
            steps.append(ForwardingStep(phase=phase, sender=sender, recipient=recipient))
            holders.append(recipient)
        phase += 1
    return steps


@dataclass
class UnicastMulticastScheduler:
    """Drives a software multicast on top of any unicast-capable simulator.

    The scheduler is deliberately simulator-agnostic: the experiment driver
    registers :meth:`on_delivery` as the simulator's message-delivery
    callback and calls :meth:`initial_sends` to obtain the unicasts the
    source must inject at time zero.  Each subsequent delivery triggers the
    forwarding unicasts of the recipient according to the binomial schedule.

    Attributes
    ----------
    source:
        The multicast source processor.
    destinations:
        The multicast destinations.
    steps:
        The full binomial schedule.
    completed:
        Destinations that have received the payload so far.
    """

    source: int
    destinations: tuple[int, ...]
    steps: list[ForwardingStep] = field(init=False)
    completed: set[int] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        self.destinations = tuple(self.destinations)
        self.steps = binomial_schedule(self.source, self.destinations)
        self._sends_by_sender: dict[int, list[ForwardingStep]] = {}
        for step in self.steps:
            self._sends_by_sender.setdefault(step.sender, []).append(step)

    # ------------------------------------------------------------------
    def initial_sends(self) -> list[ForwardingStep]:
        """Unicasts the source itself must inject (one per phase)."""
        return list(self._sends_by_sender.get(self.source, []))

    def on_delivery(self, recipient: int) -> list[ForwardingStep]:
        """Record a delivery and return the unicasts ``recipient`` must now send.

        The simulator (or the experiment driver sitting on top of it) is
        responsible for actually injecting the returned unicasts, applying
        the per-message startup latency exactly as it does for any other
        send.
        """
        if recipient == self.source or recipient in self.completed:
            return []
        if recipient not in self.destinations:
            raise WorkloadError(f"unexpected delivery to {recipient}")
        self.completed.add(recipient)
        return list(self._sends_by_sender.get(recipient, []))

    @property
    def finished(self) -> bool:
        """``True`` once every destination has received the payload."""
        return len(self.completed) == len(self.destinations)
