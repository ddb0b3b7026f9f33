"""Worm segments and source network interfaces.

A **worm segment** is the presence of one message at one switch: it owns the
incoming link whose input buffer the message's flits arrive in, performs the
routing decision after the router setup latency, enqueues requests in the
OCRQs of the required output channels, acquires them atomically, and then
replicates flits from the input buffer to all acquired output buffers —
inserting bubble flits into the free output buffers whenever the data flit
is held back by an occupied one (the asynchronous replication mechanism of
paper §3.2).

A **source interface** models the sending half of a processor's network
interface: it serialises the processor's outstanding messages, charges the
per-message startup latency, and pumps the worm's flits into the injection
channel.

Both classes are driven by the engine (:mod:`repro.simulator.engine`): they
never touch the event queue directly except through the engine's helpers, so
all scheduling policy lives in one place.

The engine owns both.  A source interface refers back to it weakly, and a
worm segment strongly only while the segment lives: the segment clears each
released link's ``feeder`` when it finishes, so a finished simulation holds
no reference cycle and reference counting frees it.
"""

from __future__ import annotations

import enum
import weakref
from collections import deque
from typing import TYPE_CHECKING

from ..core.decision import DecisionMode
from ..errors import SimulationError
from .flit import Flit, FlitKind
from .links import LinkState
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import WormholeSimulator

__all__ = ["SegmentState", "WormSegment", "SourceInterface"]

# Enum members bound once as module constants for the per-flit handlers: a
# ``FlitKind.X`` lookup goes through ``EnumType.__getattr__`` and costs more
# than a global read (per lookup: +219 ns on CPython 3.10, +155 ns on 3.11,
# +16 ns on 3.12, +23 ns on 3.13), and every flit hop makes several.
_HEAD = FlitKind.HEAD
_BODY = FlitKind.BODY
_TAIL = FlitKind.TAIL
_BUBBLE = FlitKind.BUBBLE


class SegmentState(enum.Enum):
    """Lifecycle of a worm segment at a switch."""

    #: Header arrived; waiting for the router setup latency to elapse.
    SETUP = "setup"
    #: Requests enqueued; waiting to acquire all required output channels.
    WAITING = "waiting"
    #: Channels acquired; replicating flits.
    ACTIVE = "active"
    #: Tail replicated onward; the segment is finished.
    DONE = "done"


_SETUP = SegmentState.SETUP
_WAITING = SegmentState.WAITING
_ACTIVE = SegmentState.ACTIVE
_DONE = SegmentState.DONE


class WormSegment:
    """One message's state machine at one switch.

    A live segment references the engine strongly, and the engine reaches
    it through its live set, its pending routing decision, the input
    link's ``sink_segment``, the OCRQs it waits in and the ``feeder`` of
    the links it holds.  When the tail has passed, :meth:`_finish` drops
    the last of these, so nothing the engine owns keeps a finished segment
    (or, through it, the engine).
    """

    __slots__ = (
        "engine",
        "message",
        "switch",
        "in_link",
        "in_slots",
        "state",
        "required",
        "outputs",
        "head_replicated",
    )

    def __init__(
        self,
        engine: "WormholeSimulator",
        message: Message,
        switch: int,
        in_link: LinkState,
    ) -> None:
        self.engine = engine
        self.message = message
        self.switch = switch
        self.in_link = in_link
        #: The input buffer's deque (``FlitBuffer`` refills it in place, so
        #: the reference stays valid): the flits waiting to be replicated.
        #: The engine calls a feeder only when this holds a flit.
        self.in_slots = in_link.in_buffer._slots
        self.state = _SETUP
        #: Links whose OCRQ this segment is queued in (before acquisition).
        self.required: list[LinkState] = []
        #: Links acquired by this segment (after acquisition).
        self.outputs: list[LinkState] = []
        #: ``True`` once the header flit has been replicated to the outputs;
        #: bubble flits may only be inserted after this point (they fill the
        #: gap *behind* the header, never run ahead of it).
        self.head_replicated = False

    # ------------------------------------------------------------------
    # Decision and acquisition
    # ------------------------------------------------------------------
    def make_decision(self) -> None:
        """Run the routing function and enqueue the channel requests.

        Called by the engine ``router_setup_ns`` after the header flit
        arrived.  For a one-of (adaptive) decision the segment prefers a
        candidate that is immediately available (free channel, empty OCRQ);
        when none is available it enqueues on the most-preferred candidate
        and waits there, preserving FIFO fairness.
        """
        engine = self.engine
        decision = engine.routing.decide(self.message, self.switch, self.in_link.channel)
        if decision.mode is DecisionMode.ALL_OF:
            links = [engine.links[cid] for cid in decision.channel_ids]
        else:
            candidates = [engine.links[cid] for cid in decision.channel_ids]
            chosen = None
            for link in candidates:
                if link.is_free and link.ocrq.is_empty:
                    chosen = link
                    break
            if chosen is None:
                chosen = candidates[0]
            links = [chosen]
        self.required = links
        self.state = _WAITING
        for link in links:
            link.ocrq.enqueue(self)
        if engine.trace is not None:
            engine.trace_event("request", message=self.message.mid, switch=self.switch,
                               channels=[link.cid for link in links])
        self.try_acquire()

    def try_acquire(self) -> None:
        """Acquire the required channels if all are free and headed by us."""
        if self.state is not _WAITING:
            return
        mid = self.message.mid
        for link in self.required:
            if link.reserved_by is not None or link.ocrq.head() is not self:
                return
        for link in self.required:
            link.ocrq.pop_head(self)
            link.reserved_by = mid
            link.feeder = self
        self.outputs = self.required
        self.required = []
        self.state = _ACTIVE
        engine = self.engine
        if engine.trace is not None:
            engine.trace_event(
                "acquire", message=mid, switch=self.switch,
                channels=[link.cid for link in self.outputs],
            )
        self.try_advance()

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def try_advance(self) -> None:
        """Replicate flits from the input buffer to all acquired outputs.

        A data flit advances only when *every* acquired output buffer has a
        free slot; when only some do, bubble flits are pushed into those so
        the corresponding downstream branches keep moving (asynchronous
        replication).  The input-buffer slot freed by an advancing data flit
        immediately allows the upstream link to deliver the next flit.

        The engine calls this when a flit arrives in the input buffer and,
        through ``LinkState.feeder``, when an output buffer gains a slot.
        Written out against the buffers' deques because it runs on every
        flit hop; flits are never mutated, so every output receives the same
        flit object.
        """
        if self.state is not _ACTIVE:
            return
        engine = self.engine
        in_link = self.in_link
        in_slots = self.in_slots
        outputs = self.outputs
        advanced_any = False
        while in_slots:
            for link in outputs:
                out_buffer = link.out_buffer
                if len(out_buffer._slots) >= out_buffer.capacity:
                    break
            else:
                flit = in_slots.popleft()
                for link in outputs:
                    link.out_buffer._slots.append(flit)
                    if not link.busy:
                        engine.try_start_transfer(link)
                advanced_any = True
                kind = flit.kind
                if kind is _HEAD:
                    self.head_replicated = True
                elif kind is _TAIL:
                    self._finish()
                    break
                continue
            # Flit present but blocked by at least one full output buffer:
            # fill the free output buffers with bubbles so their downstream
            # branches keep advancing.  Bubbles are inserted only
            #   (a) after this segment's header has been replicated — bubbles
            #       fill the gap behind the header and must never overtake it
            #       (an overtaking bubble would occupy the downstream input
            #       buffer before any segment exists there to drain it), and
            #   (b) while one of *this message's own* data flits is what
            #       blocks the replication; once the only blockers are
            #       previously-inserted bubbles (which drain on their own
            #       within a channel cycle) or another message's trailing
            #       flits, no further bubbles are created — otherwise
            #       staggered buffer availability could starve the data flit
            #       behind an endless train of bubbles.
            if not self.head_replicated:
                break
            own_mid = self.message.mid
            blocked_by_own_data = False
            for link in outputs:
                out_buffer = link.out_buffer
                if len(out_buffer._slots) >= out_buffer.capacity:
                    for blocking in out_buffer._slots:
                        if blocking.message_id == own_mid and blocking.kind is not _BUBBLE:
                            blocked_by_own_data = True
                            break
                    if blocked_by_own_data:
                        break
            if not blocked_by_own_data:
                break
            # Bubbles are inserted one at a time, only into output buffers
            # that have fully drained: the goal is to keep the downstream
            # branch fed at channel rate, not to build up trains of bubbles
            # that the real data (and ultimately the tail) would then have to
            # queue behind.
            pushed_bubble = False
            for link in outputs:
                out_slots = link.out_buffer._slots
                if not out_slots:
                    out_slots.append(Flit(_BUBBLE, own_mid, in_slots[0].seq))
                    engine.stats.bubbles_created += 1
                    if not link.busy:
                        engine.try_start_transfer(link)
                    pushed_bubble = True
            if pushed_bubble and engine.trace is not None:
                engine.trace_event("bubble", message=own_mid, switch=self.switch)
            break
        if advanced_any and not in_link.busy and in_link.out_buffer._slots:
            # The upstream link can now deliver the next flit into the freed
            # input-buffer slot(s).
            engine.try_start_transfer(in_link)

    def _finish(self) -> None:
        """Release the acquired channels once the tail has been replicated."""
        engine = self.engine
        self.state = _DONE
        released = self.outputs
        self.outputs = []
        for link in released:
            if link.reserved_by != self.message.mid:
                raise SimulationError("segment released a channel it does not hold")
            link.reserved_by = None
            # A finished segment advances nothing (``try_advance`` returns
            # at once), and a feeder left here would keep it alive.
            link.feeder = None
        if engine.trace is not None:
            engine.trace_event(
                "release", message=self.message.mid, switch=self.switch,
                channels=[link.cid for link in released],
            )
        # Detach from the input link and let the engine drop the segment.
        in_link = self.in_link
        if in_link.sink_segment is self:
            in_link.sink_segment = None
        engine.segment_finished(self)
        # The next worm's header may already wait behind the tail (input
        # buffers deeper than one flit); it reaches the router now.
        slots = self.in_slots
        if slots and slots[0].kind is _HEAD:
            engine.handle_head_at_switch(in_link, slots[0], self.switch)
        for link in released:
            engine.notify_channel_released(link)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def waiting_on(self) -> list[LinkState]:
        """Links this segment is still waiting to acquire (for diagnostics)."""
        if self.state is not _WAITING:
            return []
        return [
            link
            for link in self.required
            if link.reserved_by is not None or link.ocrq.head() is not self
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WormSegment(msg={self.message.mid}, switch={self.switch}, "
            f"state={self.state.value})"
        )


class SourceInterface:
    """The sending side of a processor's network interface.

    Messages submitted to a processor are sent strictly one after another:
    each waits for the previous message's tail to be handed to the injection
    channel, then pays the startup latency, then streams its flits into the
    injection channel's output buffer as fast as the channel drains it.

    The engine owns its interfaces for its whole life, so an interface's
    ``engine`` is a weak proxy: a strong one would make every simulation a
    reference cycle that only the cyclic garbage collector frees.
    """

    __slots__ = (
        "engine",
        "processor",
        "injection",
        "queue",
        "current",
        "next_seq",
        "heads_pending",
        "token_gate_ns",
    )

    #: Stands where a worm segment keeps its input buffer's deque: the
    #: engine calls a feeder only when this holds a flit, and a source NI
    #: feeds its injection link only while flits of its message are left.
    in_slots = (True,)

    def __init__(self, engine: "WormholeSimulator", processor: int, injection: LinkState) -> None:
        self.engine = weakref.proxy(engine)
        self.processor = processor
        self.injection = injection
        self.queue: deque[Message] = deque()
        self.current: Message | None = None
        self.next_seq = 0
        #: Destinations of the current message its header has not reached
        #: yet (the engine counts arrivals only with the fast path on).
        self.heads_pending = 0
        #: Earliest time the NI offers its streaming worm to the fast path
        #: (``WormholeSimulator.form_token``); pushed out while the worm is
        #: a live token and for a few periods after an offer fails.
        self.token_gate_ns = 0

    # ------------------------------------------------------------------
    def submit(self, message: Message) -> None:
        """Queue ``message`` for transmission."""
        self.queue.append(message)
        if self.current is None:
            self._begin_next()

    # ------------------------------------------------------------------
    def _begin_next(self) -> None:
        engine = self.engine
        if not self.queue:
            return
        message = self.queue.popleft()
        self.current = message
        self.next_seq = 0
        self.heads_pending = len(message.destinations)
        self.token_gate_ns = 0
        now = engine.now
        message.startup_began_ns = now
        engine.trace_event("startup", message=message.mid, processor=self.processor)
        engine.schedule_after(engine.config.startup_latency_ns, self._on_startup_done)

    def _on_startup_done(self) -> None:
        engine = self.engine
        message = self.current
        if message is None:
            raise SimulationError("startup completed with no current message")
        message.startup_done_ns = engine.now
        # The injection channel is used by this processor only and sends are
        # serialised, so it is always free here; reserve it for symmetry with
        # switch-to-switch channels (and for utilisation accounting).
        self.injection.reserved_by = message.mid
        self.injection.feeder = self
        self.try_advance()

    def try_advance(self) -> None:
        """Push as many flits as the injection output buffer will take.

        The engine calls this, like :meth:`WormSegment.try_advance`, through
        ``LinkState.feeder`` when the injection output buffer gains a slot.
        """
        engine = self.engine
        message = self.current
        if message is None:
            return
        length = message.length_flits
        injection = self.injection
        out_buffer = injection.out_buffer
        out_slots = out_buffer._slots
        capacity = out_buffer.capacity
        mid = message.mid
        first = seq = self.next_seq
        while seq < length and len(out_slots) < capacity:
            if seq == 0:
                kind = _HEAD
            elif seq == length - 1:
                kind = _TAIL
            else:
                kind = _BODY
            out_slots.append(Flit(kind, mid, seq))
            seq += 1
        self.next_seq = seq
        if seq != first and not injection.busy:
            engine.try_start_transfer(injection)
        if seq >= length:
            # Tail handed to the channel: release it and move on to the next
            # queued message (its startup may overlap with the tail still
            # draining out of the buffer, exactly as a real NI would).
            message.injection_done_ns = engine.now
            self.injection.reserved_by = None
            self.injection.feeder = None
            self.current = None
            engine.trace_event("injected", message=message.mid, processor=self.processor)
            if self.queue:
                self._begin_next()
        elif seq != first and not self.heads_pending and engine.now >= self.token_gate_ns:
            # Every destination has the header, so the worm streams: offer
            # it to the fast path, which may fold it into a worm token.
            engine.form_token(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        current = self.current.mid if self.current else None
        return (
            f"SourceInterface(processor={self.processor}, current={current}, "
            f"backlog={len(self.queue)})"
        )
