"""Run-time state of a unidirectional channel (a *link*).

Each link owns:

* an **output buffer** at the transmitting router (written by the worm
  segment that has acquired the channel),
* the **wire**, which carries at most one flit per ``channel_latency_ns``,
* an **input buffer** at the receiving router (drained by the worm segment
  at that router, or consumed immediately when the receiver is a processor),
* an **OCRQ** holding the messages waiting to acquire the channel, and
* the reservation (``reserved_by``) of the message currently holding it.

The link performs no scheduling itself; the engine drives transfers and
notifies the affected parties when buffers change.
"""

from __future__ import annotations

from ..topology.channels import Channel, LinkRole
from .buffers import FlitBuffer
from .ocrq import OutputChannelRequestQueue

__all__ = ["LinkState"]


class LinkState:
    """Mutable simulation state of one unidirectional channel."""

    __slots__ = (
        "channel",
        "out_buffer",
        "in_buffer",
        "ocrq",
        "reserved_by",
        "busy",
        "feeder",
        "sink_segment",
        "data_flits_carried",
        "bubble_flits_carried",
        "busy_since_ns",
        "busy_total_ns",
        "sink_is_processor",
    )

    def __init__(
        self,
        channel: Channel,
        output_depth: int,
        input_depth: int,
    ) -> None:
        self.channel = channel
        self.out_buffer = FlitBuffer(output_depth)
        self.in_buffer = FlitBuffer(input_depth)
        self.ocrq = OutputChannelRequestQueue()
        #: Message id currently holding the channel, or ``None``.
        self.reserved_by: int | None = None
        #: ``True`` while a flit is on the wire.
        self.busy = False
        #: The segment (source NI or worm segment) currently writing into the
        #: output buffer; notified when output-buffer space frees up.
        self.feeder = None
        #: The worm segment currently draining the input buffer at the
        #: receiving switch (``None`` at processors and before the header
        #: has been processed).
        self.sink_segment = None
        # Statistics (only meaningful when channel stats are enabled).
        self.data_flits_carried = 0
        self.bubble_flits_carried = 0
        self.busy_since_ns: int | None = None
        self.busy_total_ns = 0
        #: ``True`` when the receiving end is a processor (consumption
        #: channel); cached as a plain attribute for the engine's hot path.
        self.sink_is_processor = channel.role is LinkRole.CONSUMPTION

    # ------------------------------------------------------------------
    @property
    def cid(self) -> int:
        """Channel id."""
        return self.channel.cid

    @property
    def is_free(self) -> bool:
        """``True`` when no message holds the channel."""
        return self.reserved_by is None

    # ------------------------------------------------------------------
    def mark_utilisation_end(self, now_ns: int) -> None:
        """End a busy period (channel-statistics mode only)."""
        if self.busy_since_ns is not None:
            self.busy_total_ns += now_ns - self.busy_since_ns
            self.busy_since_ns = None

    def fast_forward(self, k: int, advance_ns: int, bubble: bool) -> None:
        """Advance the utilisation counters by ``k`` periods a worm token
        skipped (``advance_ns`` is ``k`` channel periods): the wire carried
        one flit of the same kind per period and stayed continuously busy,
        so the open busy period simply slides forward with the clock
        (channel-statistics mode only; the engine's fast path is the single
        caller)."""
        if bubble:
            self.bubble_flits_carried += k
        else:
            self.data_flits_carried += k
        self.busy_total_ns += advance_ns
        if self.busy_since_ns is not None:
            self.busy_since_ns += advance_ns

    def busy_ns_until(self, now_ns: int) -> int:
        """Total busy time up to ``now_ns``, including a still-open period.

        Bounded runs stop while flits are mid-wire; reporting must flush the
        open period up to the window boundary *without* closing it, so that
        resuming the simulation keeps accumulating correctly.
        """
        total = self.busy_total_ns
        if self.busy_since_ns is not None and now_ns > self.busy_since_ns:
            total += now_ns - self.busy_since_ns
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkState(cid={self.cid}, {self.channel.src}->{self.channel.dst}, "
            f"reserved_by={self.reserved_by}, out={len(self.out_buffer)}, "
            f"in={len(self.in_buffer)}, busy={self.busy})"
        )
