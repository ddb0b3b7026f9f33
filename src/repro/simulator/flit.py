"""Flit representation.

A worm consists of a header flit, body flits and a tail flit.  SPAM's
asynchronous replication additionally introduces *bubble* flits: when a data
flit cannot be replicated to all of a message's acquired output buffers
because some of them are still occupied, empty bubble flits are propagated
into the free ones so that the different heads of the multi-head worm can
advance independently (paper §3.2).

Flits are deliberately tiny objects (``__slots__``, no payload) because the
simulator creates hundreds of thousands of them in a single Figure 3 run.
"""

from __future__ import annotations

import enum

__all__ = ["FlitKind", "Flit"]


class FlitKind(enum.IntEnum):
    """The four flit kinds handled by the replication machinery."""

    HEAD = 0
    BODY = 1
    TAIL = 2
    #: Filler flit inserted by asynchronous replication; carries no payload
    #: and is not counted towards message delivery.
    BUBBLE = 3


class Flit:
    """One flit of one message.

    Attributes
    ----------
    kind:
        :class:`FlitKind` of the flit.
    message_id:
        Identifier of the owning message (bubbles belong to the message whose
        replication produced them).
    seq:
        Zero-based sequence number within the message.  Bubbles reuse the
        sequence number of the data flit they were inserted in place of;
        their ordering relative to data flits is irrelevant because they are
        discarded on consumption.

    A flit is never modified after construction, so a replicating segment
    pushes the same flit object into every output buffer of its fan-out.
    """

    __slots__ = ("kind", "message_id", "seq")

    def __init__(self, kind: FlitKind, message_id: int, seq: int) -> None:
        self.kind = kind
        self.message_id = message_id
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flit({self.kind.name}, msg={self.message_id}, seq={self.seq})"
