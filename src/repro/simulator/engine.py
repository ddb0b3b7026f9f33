"""The flit-level wormhole simulation engine.

:class:`WormholeSimulator` wires a network, a routing algorithm and a
configuration into an event-driven flit-level simulation:

* processors submit messages through their :class:`~repro.simulator.router.SourceInterface`
  (startup latency, serialised sends, flit injection);
* switches host :class:`~repro.simulator.router.WormSegment` state machines
  (router setup latency, routing decision, OCRQ requests, atomic channel
  acquisition, asynchronous flit replication with bubbles);
* links carry one flit per ``channel_latency_ns`` between output and input
  buffers;
* processors consume flits immediately and record per-destination delivery
  times.

The engine is deliberately policy-free: all routing behaviour comes from the
:class:`~repro.core.interface.RoutingAlgorithm` passed in, which is how SPAM,
the up*/down* baseline and deliberately broken algorithms (for the deadlock
tests) all run on the same substrate.

Worm-token fast path
--------------------

The dominant cost of a run is one transfer event per flit per hop (a FIFO
append and pop, see :mod:`repro.simulator.events`).  Most of those events
belong to worms in their *streaming phase*: the header has reached every
destination, the worm holds every channel it acquired until its tail
passes (paper §3.2), and it repeats period after period except that each
body flit's sequence number advances by one.

When ``SimulationConfig.fast_path`` is on (the default), such a worm costs
one lane entry per period instead of one ``_complete_transfer`` per link.
Each time the source NI pushes a body flit of a message whose header has
reached every destination, :meth:`WormholeSimulator.form_token` checks
that every link of the worm is busy and that the lane's tail holds exactly
those links, due one period ahead, and swaps them for one *worm token*
(:class:`_WormToken`).
The token's first pop runs the block through ``_complete_transfer`` as the
reference would and verifies that it repeated itself shifted by one
period; from then on every pop advances the worm one period with no
per-flit work and re-appends the token one period later.  Before the NI
would push the tail, and before a bounded run returns, the token
materialises the skipped periods (flit sequence numbers, the NI cursor,
``flit_hops``, ``bubbles_created`` and channel statistics) and the worm
runs per flit again.

Once the bound period has pushed the tail, :meth:`WormholeSimulator._form_drain`
folds every link ahead of the tail into a *drain token* (:class:`_DrainToken`)
if the worm streams one body flit per link.  Each pop advances those
links one period and peels the level the tail enters next, whose links the
reference has just left idle; the tail's own transfers stay lane entries,
so every release, OCRQ hand-over and delivery runs per flit.

A unicast skips its worm token.  With one-flit buffers, once its header
reaches its destination the rest of its body has a closed form: one
transfer per period, the *spine*, carries a run that starts at the
consumption link and grows one link upstream per period until it holds the
whole path, and the NI pushes the tail ``D`` periods before delivery.
:meth:`WormholeSimulator._form_unicast` swaps the spine for a *unicast
token* (:class:`_UnicastToken`), whose first pop runs it per flit and
verifies the block it appended; every later pop advances the run with no
per-flit work, and the pop that pushes the tail leaves a drain token in
front of the tail's transfer.

**Equivalence guarantee:** a token keeps the place of the transfers it
stands for in the lane, so every ``(time, seq)`` comparison against other
transfers and generic events comes out as in the per-flit engine; and
nothing outside the worm reads or writes the buffers, segments or NI
cursor a token lags behind (the links ahead of the tail stay reserved
until the tail passes).  Every observable — delivery timestamps,
:class:`~repro.simulator.trace.Trace` records, message records,
``flit_hops``, bubble counts and per-channel statistics — is therefore
bit-identical to a run with ``fast_path=False`` at the end of every
``run()`` and ``run_for()``.  ``docs/fast_path.md`` gives both arguments,
the verification checks and the bound in full; the fast path's counters
(``coalesced_ticks`` and the verification tally ``coalesce_exits``) are
documented in ``docs/engine_counters.md``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop
from itertools import islice
from typing import Callable, Iterable, Sequence

from ..core.interface import RoutingAlgorithm
from ..core.multicast import normalize_destinations
from ..errors import ConfigurationError, DeadlockError, LivelockError, SimulationError
from ..obs import Telemetry
from ..topology.network import Network
from .buffers import FlitBuffer
from .config import SimulationConfig
from .deadlock import diagnose
from .events import _TRANSFER, EventQueue
from .flit import Flit, FlitKind
from .links import LinkState
from .message import Message
from .router import SourceInterface, WormSegment
from .stats import ChannelRecord, SimulationStats
from .trace import Trace

__all__ = ["PROBE_TIERS", "WormholeSimulator"]

#: Signature of a per-destination delivery callback.
DeliveryCallback = Callable[[Message, int, int], None]
#: Signature of a message-completion callback.
CompletionCallback = Callable[[Message], None]

#: Periods a source NI waits before offering its worm again after the
#: lane's tail did not hold the worm's block or a token failed verification.
_TOKEN_RETRY_PERIODS = 4
#: ``SourceInterface.token_gate_ns`` while the NI's worm is a live token.
_NEVER = 1 << 62

# Enum members bound once as module constants for the per-flit handlers
# (see the note in ``router.py``: on CPython 3.10 and 3.11 an enum member
# lookup costs 150-220 ns more than a global read).
_HEAD = FlitKind.HEAD
_BODY = FlitKind.BODY
_TAIL = FlitKind.TAIL
_BUBBLE = FlitKind.BUBBLE

#: Switches one worm may visit before ``handle_head_at_switch`` raises
#: :class:`~repro.errors.LivelockError` (a routing that makes no progress).
_MAX_HOPS = 4096

#: Token verification outcomes: ``_verify_token`` and ``_verify_unicast``
#: return one of these, and ``PROBE_TIERS[tier]`` names its
#: ``coalesce_exits`` slot and its telemetry.  Either way the verified
#: period ran through the per-flit machinery.
_VERIFY_FAILURE, _BATCH = range(2)
PROBE_TIERS = ("verify_failure", "batch")


class WormholeSimulator:
    """Event-driven flit-level wormhole simulator.

    Parameters
    ----------
    network:
        The switch-based network to simulate.
    routing:
        The routing algorithm deciding output channels for every header.
    config:
        Latency / sizing parameters; defaults to the paper's configuration.

    Example
    -------
    >>> from repro.topology import figure1_network
    >>> from repro.core import SpamRouting
    >>> fixture = figure1_network()
    >>> spam = SpamRouting.build(fixture.network, root=fixture.root)
    >>> sim = WormholeSimulator(fixture.network, spam)
    >>> message = sim.submit_message(fixture.source, fixture.destinations)
    >>> stats = sim.run()
    >>> message.is_complete
    True
    """

    def __init__(
        self,
        network: Network,
        routing: RoutingAlgorithm,
        config: SimulationConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        network.require_connected()
        self.network = network
        self.routing = routing
        self.config = config or SimulationConfig()
        self.events = EventQueue(self.config.channel_latency_ns)
        self.links: list[LinkState] = [
            LinkState(
                channel,
                output_depth=self.config.output_buffer_depth,
                input_depth=self.config.input_buffer_depth,
            )
            for channel in network.channels()
        ]
        self.sources: dict[int, SourceInterface] = {}
        for processor in network.processors():
            injection = self.links[network.injection_channel(processor).cid]
            self.sources[processor] = SourceInterface(self, processor, injection)
        self.messages: dict[int, Message] = {}
        self.stats = SimulationStats()
        self.trace: Trace | None = Trace() if self.config.trace else None
        self._segments: set[WormSegment] = set()
        self._next_mid = 0
        self.delivery_callbacks: list[DeliveryCallback] = []
        self.completion_callbacks: list[CompletionCallback] = []
        # Hot-path caches (attribute chains are expensive in the event loop).
        self._collect_stats = self.config.collect_channel_stats
        #: Unicast tokens need one-flit buffers (``_form_unicast``).
        self._one_flit_buffers = (
            self.config.input_buffer_depth == 1 and self.config.output_buffer_depth == 1
        )
        #: Worm-periods the fast path advanced with no per-flit work, one
        #: per token pop that skipped its block (an engine-side
        #: observability counter; not part of the simulation's observable
        #: results, which are identical with the fast path off).
        self.coalesced_ticks = 0
        #: Token verifications by outcome: ``coalesce_exits[tier]`` counts
        #: the verifications that ended in each tier, indexed like
        #: :data:`PROBE_TIERS` (failed, then passed).
        self.coalesce_exits = [0] * len(PROBE_TIERS)
        #: Tail deliveries recorded so far (cheap sentinel the token
        #: verification compares to prove no destination was reached inside
        #: the verified period; not an observable result).
        self._delivery_count = 0
        #: Wall-clock telemetry recorder (``repro.obs``), ``None`` when off.
        #: Everything written here is observability-only — the observables
        #: firewall (repro-lint R9) keeps it out of ``stats``/``trace``/results.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # Time and scheduling helpers
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self.events.now

    def schedule_after(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay_ns`` from the current time."""
        self.events.schedule_after(delay_ns, callback)

    def trace_event(self, kind: str, **fields) -> None:
        """Record a trace event (no-op unless tracing is enabled)."""
        if self.trace is not None:
            self.trace.record(self.now, kind, **fields)

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
    def submit_message(
        self,
        source: int,
        destinations: Sequence[int] | Iterable[int],
        at_ns: int | None = None,
        length_flits: int | None = None,
        metadata: dict | None = None,
    ) -> Message:
        """Create a message and hand it to the source processor at ``at_ns``.

        Parameters
        ----------
        source:
            Source processor node id.
        destinations:
            One or more destination processor node ids.
        at_ns:
            Arrival time of the send request at the source network interface
            (defaults to the current simulation time).  A time before
            ``now`` raises :class:`~repro.errors.SimulationError`: the
            message's creation time would otherwise be rewritten and its
            ``latency_from_creation_ns`` understated.
        length_flits:
            Worm length; defaults to the configuration's message length.
        metadata:
            Free-form annotations copied onto the message.
        """
        at = self.now if at_ns is None else at_ns
        if at < self.now:
            raise SimulationError(
                f"cannot submit a message at {at} ns, current time is {self.now} ns"
            )
        if not self.network.is_processor(source):
            raise ConfigurationError(f"source {source} is not a processor")
        dests = normalize_destinations(self.network, source, destinations)
        message = Message(
            mid=self._next_mid,
            source=source,
            destinations=dests,
            length_flits=(
                self.config.message_length_flits if length_flits is None else length_flits
            ),
            created_ns=at,
        )
        self.routing.validate_destinations(message)
        self._next_mid += 1
        if metadata:
            message.metadata.update(metadata)
        self.routing.prepare(message)
        self.messages[message.mid] = message
        self.stats.messages_submitted += 1
        self.events.schedule(at, partial(self.sources[source].submit, message))
        self.trace_event("submit", message=message.mid, source=source, destinations=dests)
        return message

    def submit_broadcast(self, source: int, at_ns: int | None = None) -> Message:
        """Convenience wrapper: multicast from ``source`` to every other processor."""
        destinations = [p for p in self.network.processors() if p != source]
        return self.submit_message(source, destinations, at_ns=at_ns)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until_ns: int | None = None) -> SimulationStats:
        """Process events until the queue drains (or ``until_ns`` is reached).

        Bounded runs materialise every live worm token and advance the
        clock to the window boundary on return, so that back-to-back
        ``run_for`` windows tile time exactly, time-based rates divide by
        the intended duration, and the caller sees the reference state.

        When the queue drains while messages are still incomplete and
        deadlock detection is enabled, a :class:`~repro.errors.DeadlockError`
        is raised carrying a :class:`~repro.simulator.deadlock.DeadlockReport`.
        A bound already in the past raises :class:`~repro.errors.SimulationError`.
        """
        events = self.events
        if until_ns is not None and until_ns < events.now:
            raise SimulationError(
                f"cannot run until {until_ns} ns, current time is {events.now} ns"
            )
        complete_transfer = self._complete_transfer
        pop_token = self._pop_token
        transfer = _TRANSFER
        telemetry = self.telemetry
        run_start_ns = 0 if telemetry is None else telemetry.clock()
        # The loop body below is ``pop_entry()`` unrolled by hand: this is the
        # hottest loop in the repository and method/property calls per event
        # are measurable.  ``heap`` and ``lane`` alias the live queues (folds
        # and unfolds are in place), so pushes from callbacks remain visible.
        heap = events._heap
        lane = events._lane
        popleft = lane.popleft
        while True:
            if lane:
                entry = lane[0]
                if not heap or entry < heap[0]:
                    t0 = entry[0]
                    if until_ns is not None and t0 > until_ns:
                        break
                    popleft()
                    events.now = t0
                    if entry[2] == transfer:
                        complete_transfer(entry[3])
                    else:
                        pop_token(entry[3])
                    continue
            elif not heap:
                break
            entry = heap[0]
            if until_ns is not None and entry[0] > until_ns:
                break
            heappop(heap)
            events.now = entry[0]
            entry[3]()
        if until_ns is not None:
            # A bounded run hands back per-flit state: every live token
            # materialises its skipped periods and turns back into its
            # transfers.  Then the run owns the whole window: land exactly
            # on the boundary even if the last event fired earlier (or none
            # did).
            events.unfold_tokens(self._thaw)
            events.advance_to(until_ns)
        self.stats.end_time_ns = self.now
        if telemetry is not None:
            telemetry.span_at(
                "engine.run",
                run_start_ns,
                telemetry.clock(),
                bounded=until_ns is not None,
                end_time_ns=self.now,
            )
        if until_ns is None:
            incomplete = [m for m in self.messages.values() if not m.is_complete]
            if incomplete:
                report = diagnose(self)
                error = DeadlockError(
                    "simulation stalled with undelivered messages\n" + report.describe()
                )
                error.report = report  # type: ignore[attr-defined]
                raise error
        if self.config.collect_channel_stats:
            self._finalise_channel_stats()
        return self.stats

    def run_for(self, duration_ns: int) -> SimulationStats:
        """Run until ``now + duration_ns`` (partial runs skip deadlock checks)."""
        return self.run(until_ns=self.now + duration_ns)

    # ------------------------------------------------------------------
    # Worm tokens: the fast path
    # ------------------------------------------------------------------
    def form_token(self, ni: SourceInterface) -> None:
        """Fold the block of transfers ``ni``'s worm just scheduled into one
        worm token.

        The source NI calls this right after it pushed a body flit of a
        message whose header has reached every destination.  The per-flit
        engine schedules each transfer of such a worm from the completion
        just upstream of it, and the injection link last, so the worm's
        transfers due one period from now sit at the lane's tail.  The fold
        happens only when every link the worm holds is busy and the lane's
        tail holds exactly those links, due one period ahead, with
        consecutive ``seq`` values (no other entry was scheduled among
        them); otherwise the NI offers the worm again a few periods later.
        """
        events = self.events
        period = self.config.channel_latency_ns
        message = ni.current
        if ni.next_seq > message.length_flits - 3:
            # Verifying would leave no period to skip before the tail.
            ni.token_gate_ns = _NEVER
            return
        ni.token_gate_ns = events.now + _TOKEN_RETRY_PERIODS * period
        # Walk the worm from its injection link down its tree (each switch
        # it reaches has the worm's segment, since the header has reached
        # every destination).  A streaming worm moves a flit over every one
        # of its links each period; an idle link is a hole the header's
        # crawl left behind, still travelling up towards the source.
        links: list[LinkState] = []
        stack = [ni.injection]
        while stack:
            link = stack.pop()
            if not link.busy:
                return
            links.append(link)
            if not link.sink_is_processor:
                stack.extend(link.sink_segment.outputs)
        count = len(links)
        block = list(islice(reversed(events._lane), count))
        block.reverse()
        due = events.now + period
        mid = message.mid
        if (
            len(block) == count
            and block[-1][1] - block[0][1] == count - 1
            and all(
                time_ns == due and kind == _TRANSFER and link.reserved_by == mid
                for time_ns, _seq, kind, link in block
            )
        ):
            events.fold_transfers(count, _WormToken(ni, [entry[3] for entry in block]))
            ni.token_gate_ns = _NEVER

    def _pop_token(self, token: _WormToken | _DrainToken | _UnicastToken) -> None:
        """A token is due.  A verified unicast token advances its run
        (:meth:`_pop_unicast`), and a drain token advances and peels a level
        (:meth:`_pop_drain`).  A worm or unicast token is verified on its
        first pop.  A verified worm token skips its block for one period,
        or, at its bound, materialises, runs the block per flit (the NI
        pushes the tail) and hands the links ahead of the tail to a drain
        token."""
        cls = token.__class__
        if cls is _UnicastToken and token.size:
            self._pop_unicast(token)
        elif cls is _DrainToken:
            self._pop_drain(token)
        elif cls is _UnicastToken or token.shifting is None:
            if self.telemetry is not None:
                tier = self._verify_token_timed(token)
            elif cls is _UnicastToken:
                tier = self._verify_unicast(token)
            else:
                tier = self._verify_token(token)
            self.coalesce_exits[tier] += 1
        elif token.skipped < token.bound:
            token.skipped += 1
            self.coalesced_ticks += 1
            self.events.schedule_token(token)
        else:
            message = token.ni.current
            complete_transfer = self._complete_transfer
            for link in self._thaw(token):
                complete_transfer(link)
            self._form_drain(token, message)

    def _verify_token(self, token: _WormToken) -> int:
        """Run the token's block through the per-flit machinery, exactly as
        the reference would, and check that it repeated itself one period
        later; return the outcome tier.

        ``_BATCH``: the block rescheduled the same links in the same order,
        scheduled no generic event, recorded no trace event, delivered no
        tail, completed no message, created or finished no segment, every
        buffer the worm holds shifted each slot by 0 or 1 body seq, and the
        NI cursor moved by one.  The rescheduled block folds back into the
        token, which from now on skips its block once per pop.
        ``_VERIFY_FAILURE``: the rescheduled transfers stay in the lane (the
        block already was the reference execution, so nothing is undone),
        and the NI offers the worm again a few periods later.
        """
        events = self.events
        lane = events._lane
        stats = self.stats
        ni = token.ni
        message = ni.current
        links = token.links
        count = len(links)
        buffers = [buffer for link in links for buffer in (link.out_buffer, link.in_buffer)]
        before = [tuple(buffer._slots) for buffer in buffers]
        counters = self._token_counters()
        next_seq = ni.next_seq
        bubbles = stats.bubbles_created
        carried = [link.out_buffer._slots[0].kind is _BUBBLE for link in links]
        depth = len(lane)
        complete_transfer = self._complete_transfer
        for link in links:
            complete_transfer(link)
        ni.token_gate_ns = events.now + _TOKEN_RETRY_PERIODS * self.config.channel_latency_ns
        if (
            len(lane) != depth + count
            or self._token_counters() != counters
            or ni.current is not message
            or ni.next_seq != next_seq + 1
            or any(
                entry[3] is not link
                for entry, link in zip(islice(reversed(lane), count), reversed(links))
            )
        ):
            return _VERIFY_FAILURE
        plan = _shift_plan(message, ni.next_seq, buffers, before)
        if plan is None:
            return _VERIFY_FAILURE
        token.shifting, token.bound = plan
        token.carried = carried
        token.bubbles = stats.bubbles_created - bubbles
        events.fold_transfers(count, token)
        ni.token_gate_ns = _NEVER
        return _BATCH

    def _token_counters(self) -> tuple[int, int, int, int, int]:
        """What a verified block may not change: pending generic events,
        trace records, completed messages, live segments and deliveries."""
        trace = self.trace
        return (
            len(self.events._heap),
            0 if trace is None else len(trace.events),
            self.stats.messages_completed,
            len(self._segments),
            self._delivery_count,
        )

    def _form_drain(self, token: _WormToken, message: Message) -> None:
        """Fold the links ahead of ``message``'s tail into a drain token.

        ``token`` has just run its bound period per flit, in which the NI
        pushed the tail.  The fold happens only from the one-flit streaming
        state: the NI has moved on and the tail is the only flit on the
        injection link; every other link of the block holds exactly one
        body flit of the worm in its output buffer and nothing in its input
        buffer; and the lane ends with the block's transfers in block order,
        due one period ahead, with consecutive ``seq`` values (the injection
        link's is last: the NI always reschedules it after the rest).
        Otherwise the drain runs per flit.
        """
        links = token.links
        injection = links[-1]
        slots = injection.out_buffer._slots
        if (
            token.ni.current is message
            or len(slots) != 1
            or slots[0].kind is not _TAIL
            or injection.in_buffer._slots
        ):
            return
        mid = message.mid
        region = links[:-1]
        for link in region:
            slots = link.out_buffer._slots
            if (
                len(slots) != 1
                or slots[0].kind is not _BODY
                or slots[0].message_id != mid
                or link.in_buffer._slots
            ):
                return
        events = self.events
        count = len(links)
        block = list(islice(reversed(events._lane), count))
        block.reverse()
        due = events.now + self.config.channel_latency_ns
        if len(block) != count or block[-1][1] - block[0][1] != count - 1 or any(
            time_ns != due or kind != _TRANSFER or entry_link is not link
            for (time_ns, _seq, kind, entry_link), link in zip(block, links)
        ):
            return
        # Level d holds the links d segments below the injection link: the
        # tail enters level d in the d-th period of the drain.
        levels = []
        level = injection.sink_segment.outputs
        while level:
            levels.append(level)
            level = [
                output
                for link in level
                if not link.sink_is_processor
                for output in link.sink_segment.outputs
            ]
        events.fold_transfers(count - 1, _DrainToken(region, levels), following=1)

    def _pop_drain(self, token: _DrainToken) -> None:
        """Advance the links ahead of the tail one period with no per-flit
        work, and peel the level the tail enters next.

        In the reference period the links of that level have at this point
        completed their last body flit, which moved on, and nothing has
        refilled them: the transfer that will, the tail's, comes after the
        region's in the lane.  So they are idle with both buffers empty,
        and their hops and channel statistics close as
        ``_complete_transfer`` would close them.  The token is re-appended
        before the tail's transfers run, and ends with its last level.
        """
        token.skipped += 1
        periods = token.skipped
        level = token.levels[periods - 1]
        for link in level:
            link.out_buffer._slots.popleft()
            link.busy = False
        self.stats.flit_hops += periods * len(level)
        if self._collect_stats:
            now = self.events.now
            advance = (periods - 1) * self.config.channel_latency_ns
            for link in level:
                link.fast_forward(periods - 1, advance, False)
                link.data_flits_carried += 1
                link.mark_utilisation_end(now)
        self.coalesced_ticks += 1
        if periods < len(token.levels):
            self.events.schedule_token(token)

    def _thaw(self, token: _WormToken | _DrainToken) -> list[LinkState]:
        """Materialise the periods ``token`` skipped and end it.

        Flit seqs, the NI cursor, ``flit_hops``, ``bubbles_created`` and the
        channel statistics catch up with the per-flit engine.  Returns the
        block's links in lane order: the transfers the token stood for.
        A drain token (:meth:`_thaw_drain`) leaves the NI alone: it may
        already be serving its next message.
        """
        if token.__class__ is _DrainToken:
            return self._thaw_drain(token)
        if token.__class__ is _UnicastToken:
            return self._thaw_unicast(token)
        periods = token.skipped
        if periods:
            for buffer, deltas in token.shifting:
                buffer.replace_contents(
                    Flit(flit.kind, flit.message_id, flit.seq + periods * delta)
                    for flit, delta in zip(buffer._slots, deltas)
                )
            token.ni.next_seq += periods
            stats = self.stats
            stats.flit_hops += periods * len(token.links)
            stats.bubbles_created += periods * token.bubbles
            if self._collect_stats:
                advance = periods * self.config.channel_latency_ns
                for link, bubble in zip(token.links, token.carried):
                    link.fast_forward(periods, advance, bubble)
        token.ni.token_gate_ns = 0
        return token.links

    def _thaw_drain(self, token: _DrainToken) -> list[LinkState]:
        """:meth:`_thaw` for a drain token: returns the links of the levels
        it has not peeled, in lane order.  After ``skipped`` periods each
        carries the body flit that was ``skipped`` links further up the
        worm (one flit per link and no bubble: the flits along a path are
        consecutive), and ``flit_hops`` and its channel statistics catch
        up."""
        periods = token.skipped
        ahead = {link for level in token.levels[periods:] for link in level}
        links = [link for link in token.links if link in ahead]
        if periods:
            for link in links:
                flit = link.out_buffer._slots[0]
                link.out_buffer.replace_contents(
                    (Flit(_BODY, flit.message_id, flit.seq + periods),)
                )
            self.stats.flit_hops += periods * len(links)
            if self._collect_stats:
                advance = periods * self.config.channel_latency_ns
                for link in links:
                    link.fast_forward(periods, advance, False)
        return links

    # ------------------------------------------------------------------
    # Unicast tokens
    # ------------------------------------------------------------------
    def _form_unicast(self, ni: SourceInterface, message: Message) -> None:
        """Seat a unicast token on the transfer right behind the header's
        delivery.

        ``message``'s header has just reached its destination.  From here
        to its tail push the unicast is closed: it holds every link of its
        path, the processor takes one flit per period, and one transfer
        per period, the *spine*, carries its run.  The spine is the
        transfer on the link into the destination's switch, due now with
        the next ``seq``.  If the lane's head is that transfer, the token
        takes its place; otherwise, or when the tail would be pushed before
        the run reaches the injection link (``L - 1 < 2 D`` for ``L``
        flits over ``D`` links), the unicast runs as before.
        """
        path = [ni.injection]
        link = ni.injection
        while not link.sink_is_processor:
            link = link.sink_segment.outputs[0]
            path.append(link)
        count = len(path)
        lane = self.events._lane
        if count < 3 or message.length_flits - 1 < 2 * count or not lane:
            return
        time_ns, _seq, kind, spine = lane[0]
        if time_ns != self.events.now or kind != _TRANSFER or spine is not path[-2]:
            return
        path.reverse()
        push = message.length_flits - 1 - count
        self.events.fold_head(_UnicastToken(ni, message.mid, path, push))
        ni.token_gate_ns = _NEVER

    def _verify_unicast(self, token: _UnicastToken) -> int:
        """Run the spine transfer through the per-flit machinery, exactly as
        the reference would, and fold the block it appended.

        ``_BATCH``: the transfer appended exactly three transfers and did
        nothing else (no generic event, trace record, delivery, completed
        message or segment change): the consumption link's, the spine's and
        the next link upstream's, in that order, due one period ahead with
        consecutive ``seq`` values.  They fold into the token, whose run
        from now on advances one period per pop.  ``_VERIFY_FAILURE``: the
        appended transfers stay in the lane (they already are the reference
        execution) and the worm runs on as if no token had formed.
        """
        events = self.events
        lane = events._lane
        links = token.links
        depth = len(lane)
        counters = self._token_counters()
        self._complete_transfer(links[1])
        due = events.now + self.config.channel_latency_ns
        if (
            len(lane) == depth + 3
            and self._token_counters() == counters
            and lane[-1][1] - lane[-3][1] == 2
            and all(
                lane[index - 3][0] == due
                and lane[index - 3][2] == _TRANSFER
                and lane[index - 3][3] is links[index]
                for index in range(3)
            )
        ):
            events.fold_transfers(3, token)
            token.size = 3
            return _BATCH
        token.ni.token_gate_ns = 0
        return _VERIFY_FAILURE

    def _pop_unicast(self, token: _UnicastToken) -> None:
        """Advance a verified unicast token's run one period with no
        per-flit work.

        While the worm decompresses, the run's front enters the next link
        upstream, which must be stalled: idle, with one flit of the message
        in each of its buffers.  If it is not, the token materialises and
        its block runs per flit from this period on.  At the pop where the
        NI pushes the tail, :meth:`_push_unicast_tail` ends the token.
        """
        links = token.links
        size = token.size
        if size < len(links):
            link = links[size]
            out_slots = link.out_buffer._slots
            in_slots = link.in_buffer._slots
            mid = token.mid
            if (
                link.busy
                or len(out_slots) != 1
                or len(in_slots) != 1
                or out_slots[0].message_id != mid
                or in_slots[0].message_id != mid
            ):
                complete_transfer = self._complete_transfer
                for link in self._thaw(token):
                    complete_transfer(link)
                return
            # The input buffer's flit moves on into the run, and the link
            # starts sending its output buffer's flit.
            in_slots.popleft()
            link.busy = True
            if self._collect_stats and link.busy_since_ns is None:
                link.busy_since_ns = self.events.now
            token.size = size + 1
        elif token.skipped + 1 == token.push:
            self._push_unicast_tail(token)
            return
        token.skipped += 1
        self.coalesced_ticks += 1
        self.events.schedule_token(token)

    def _push_unicast_tail(self, token: _UnicastToken) -> None:
        """The token's last pop, in whose period the NI pushes the tail.

        The run materialises through this period, in which the injection
        link's last body flit moved on.  The links ahead of the tail, each
        holding one body flit, become a drain token, and the NI pushes the
        tail as ``SourceInterface.try_advance`` does: the tail's transfer
        behind the drain token (the lane shape ``_form_drain`` builds), the
        injection record, the release of the injection link and the next
        message's startup.
        """
        token.skipped = token.push
        region = token.links[:-1]
        injection = token.links[-1]
        self._catch_up(token, region)
        # The injection link joined the run at pop D - 3.
        sent = token.push - (len(token.links) - 3)
        injection.out_buffer._slots.popleft()
        injection.busy = False
        self.stats.flit_hops += sent
        if self._collect_stats:
            injection.fast_forward(sent, sent * self.config.channel_latency_ns, False)
        token.ni.next_seq += sent - 1
        self.coalesced_ticks += 1
        self.events.schedule_token(_DrainToken(region, [[link] for link in reversed(region)]))
        token.ni.try_advance()

    def _thaw_unicast(self, token: _UnicastToken) -> list[LinkState]:
        """:meth:`_thaw` for a unicast token: returns its run's links, in
        lane order, after catching them and the NI cursor up."""
        links = token.links[: token.size]
        self._catch_up(token, links)
        ni = token.ni
        if len(links) == len(token.links):
            # The NI pushed a body flit each time the injection link, which
            # joined the run at pop D - 3, sent one.
            ni.next_seq += token.skipped - (len(links) - 3)
        ni.token_gate_ns = 0
        return links

    def _catch_up(self, token: _UnicastToken, links: list[LinkState]) -> None:
        """Materialise the periods ``token`` skipped on ``links``, a prefix
        of its run.  A link sent one flit per period since it joined the
        run: the first three at verification, ``links[i]`` at pop
        ``i - 2`` after it.  The flits along the path are consecutive, so
        each output buffer's flit advances by the flits its link sent, and
        ``flit_hops`` and the channel statistics grow as in
        :meth:`_thaw`."""
        periods = token.skipped
        if not periods:
            return
        mid = token.mid
        collect = self._collect_stats
        period = self.config.channel_latency_ns
        hops = 0
        for index, link in enumerate(links):
            sent = periods if index < 3 else periods - index + 2
            if sent:
                buffer = link.out_buffer
                buffer.replace_contents((Flit(_BODY, mid, buffer._slots[0].seq + sent),))
                hops += sent
                if collect:
                    link.fast_forward(sent, sent * period, False)
        self.stats.flit_hops += hops

    # ------------------------------------------------------------------
    # Wall-clock telemetry (observability only; see docs/observability.md)
    # ------------------------------------------------------------------
    def _verify_token_timed(self, token: _WormToken | _UnicastToken) -> int:
        """Instrumented twin of :meth:`_verify_token` and
        :meth:`_verify_unicast`: one ``engine.probe`` span around one
        verification, labelled with its outcome tier.

        ``_pop_token`` calls this instead of the raw verification when the
        engine holds a recorder; the verification itself never reads the
        clock.
        """
        tel = self.telemetry
        clock = tel.clock
        start_ns = clock()
        if token.__class__ is _UnicastToken:
            tier = self._verify_unicast(token)
        else:
            tier = self._verify_token(token)
        end_ns = clock()
        name = PROBE_TIERS[tier]
        tel.value(f"engine.probe.{name}_ns", end_ns - start_ns)
        tel.span_at("engine.probe", start_ns, end_ns, tier=name)
        return tier

    # ------------------------------------------------------------------
    # Link machinery
    # ------------------------------------------------------------------
    def try_start_transfer(self, link: LinkState) -> None:
        """Put the head flit of ``link``'s output buffer on the wire if
        possible: the wire must be idle, the output buffer non-empty and the
        receiving input buffer not full.  Written out against the buffer
        internals because this runs on every flit hop; the per-flit handlers
        skip the call while ``link.busy`` or the output buffer is empty."""
        if link.busy or not link.out_buffer._slots:
            return
        in_buffer = link.in_buffer
        if len(in_buffer._slots) >= in_buffer.capacity:
            return
        link.busy = True
        if self._collect_stats and link.busy_since_ns is None:
            link.busy_since_ns = self.events.now
        self.events.schedule_transfer(link)

    def _complete_transfer(self, link: LinkState) -> None:
        """A flit finishes crossing ``link``: hand it to the receiving side.

        Runs once per flit hop, so it works on the buffers' deques directly
        (with :class:`~repro.simulator.buffers.FlitBuffer`'s full/empty
        checks inline) and calls ``try_advance`` on the receiving segment
        and on the feeder.
        """
        out_slots = link.out_buffer._slots
        if not out_slots:
            raise SimulationError("pop from an empty flit buffer")
        flit = out_slots.popleft()
        link.busy = False
        self.stats.flit_hops += 1
        kind = flit.kind
        if self._collect_stats:
            if kind is _BUBBLE:
                link.bubble_flits_carried += 1
            else:
                link.data_flits_carried += 1
            link.mark_utilisation_end(self.events.now)

        if link.sink_is_processor:
            if kind is _TAIL:
                self._deliver_tail(flit, link.channel.dst)
            elif kind is _HEAD:
                self._header_delivered(flit)
        else:
            segment = link.sink_segment
            if kind is _BUBBLE and segment is None:
                # A bubble that arrives after its worm segment has already
                # finished carries no information; absorbing it keeps the
                # single-flit input buffer available for the next worm.
                pass
            else:
                in_buffer = link.in_buffer
                in_slots = in_buffer._slots
                if len(in_slots) >= in_buffer.capacity:
                    raise SimulationError("push into a full flit buffer")
                in_slots.append(flit)
                if kind is _HEAD:
                    # In an input buffer deeper than one flit the header may
                    # land behind the previous worm's tail; the router sees
                    # it only when it reaches the front, so the previous
                    # segment hands it over when it finishes
                    # (WormSegment._finish).
                    if segment is None:
                        self.handle_head_at_switch(link, flit, link.channel.dst)
                elif segment is not None:
                    segment.try_advance()
                elif kind is not _BUBBLE:
                    raise SimulationError(
                        f"flit of message {flit.message_id} arrived at switch "
                        f"{link.channel.dst} with no active segment"
                    )

        # The output-buffer slot freed by this transfer lets the feeder (the
        # upstream segment or the source NI) push its next flit, which may
        # already restart this link; otherwise try to restart it here.  A
        # segment whose input buffer is empty has no flit to push.
        feeder = link.feeder
        if feeder is not None and feeder.in_slots:
            feeder.try_advance()
        if not link.busy and link.out_buffer._slots:
            self.try_start_transfer(link)

    def _header_delivered(self, flit: Flit) -> None:
        """A header reached one of its destinations: count it against its
        source NI, which offers the worm to the fast path once every
        destination has the header.  A unicast's header landing may start
        a unicast token (:meth:`_form_unicast`)."""
        if self.config.fast_path:
            message = self.messages[flit.message_id]
            ni = self.sources[message.source]
            if ni.current is message:
                ni.heads_pending -= 1
                if self._one_flit_buffers and len(message.destinations) == 1:
                    self._form_unicast(ni, message)

    def _deliver_tail(self, flit: Flit, processor: int) -> None:
        """A tail flit reached its destination processor: record delivery."""
        message = self.messages[flit.message_id]
        self._delivery_count += 1
        completed = message.record_delivery(processor, self.now)
        self.trace_event("deliver", message=message.mid, destination=processor)
        for callback in self.delivery_callbacks:
            callback(message, processor, self.now)
        if completed:
            self.stats.record_message(message)
            self.trace_event("complete", message=message.mid)
            for callback in self.completion_callbacks:
                callback(message)

    def handle_head_at_switch(self, link: LinkState, flit: Flit, switch: int) -> None:
        """Create the worm segment for a header flit at the front of
        ``link``'s input buffer and schedule its decision."""
        message = self.messages[flit.message_id]
        message.hops += 1
        if message.hops > _MAX_HOPS:
            raise LivelockError(
                f"message {message.mid} exceeded {_MAX_HOPS} hops; "
                f"the routing algorithm {self.routing.name!r} is not making progress"
            )
        segment = WormSegment(self, message, switch, link)
        link.sink_segment = segment
        self._segments.add(segment)
        if self.trace is not None:
            self.trace_event("head", message=message.mid, switch=switch, channel=link.cid)
        self.events.schedule_after(self.config.router_setup_ns, segment.make_decision)

    # ------------------------------------------------------------------
    # Segment bookkeeping
    # ------------------------------------------------------------------
    def segment_finished(self, segment: WormSegment) -> None:
        """A worm segment replicated its tail and released its channels."""
        self._segments.discard(segment)

    def notify_channel_released(self, link: LinkState) -> None:
        """Wake the next OCRQ waiter (if any) after a channel release."""
        head = link.ocrq.head()
        if head is not None:
            head.try_acquire()

    def active_segments(self) -> list[WormSegment]:
        """Snapshot of the currently live worm segments (diagnostics).

        ``_segments`` is a set (membership is the hot operation), so the
        snapshot is sorted to keep every consumer — deadlock reports in
        particular — deterministic across processes.  At most one segment
        of a message lives at a switch, so ``(mid, switch)`` is unique and
        the ``key=`` sort has no ties to break.
        """
        return sorted(  # repro-lint: disable=R1 -- (mid, switch) is unique per live segment, so sorted(key=...) has no encounter-order ties
            self._segments, key=lambda seg: (seg.message.mid, seg.switch)
        )

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def _finalise_channel_stats(self) -> None:
        # Busy periods still open at the end of a bounded run are flushed up
        # to the current time without being closed, so resumed runs keep
        # accumulating from where they left off.
        now = self.now
        self.stats.channel_records = [
            ChannelRecord(
                cid=link.cid,
                src=link.channel.src,
                dst=link.channel.dst,
                data_flits=link.data_flits_carried,
                bubble_flits=link.bubble_flits_carried,
                busy_ns=link.busy_ns_until(now),
            )
            for link in self.links
        ]

    @property
    def pending_messages(self) -> list[Message]:
        """Messages submitted but not yet complete."""
        return [m for m in self.messages.values() if not m.is_complete]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WormholeSimulator(network={self.network.name!r}, routing={self.routing.name!r}, "
            f"now={self.now} ns, messages={len(self.messages)})"
        )


class _WormToken:
    """One streaming worm's transfers due at one timestamp, held in the
    transfer lane as one entry (see the module docstring)."""

    __slots__ = (
        "ni",
        "links",
        "shifting",
        "carried",
        "bubbles",
        "bound",
        "skipped",
    )

    def __init__(self, ni: SourceInterface, links: list[LinkState]) -> None:
        self.ni = ni
        #: Every link the worm holds, in the lane order of their transfers.
        self.links = links
        #: ``(buffer, per-slot seq delta)`` for every buffer whose slots
        #: advance each period; ``None`` until the token is verified.
        self.shifting: list[tuple[FlitBuffer, list[int]]] | None = None
        #: Per link of the block: whether its wire carries a bubble.
        self.carried: list[bool] = []
        #: Bubbles one period of the block creates.
        self.bubbles = 0
        #: Periods the token may skip before the NI would push the tail.
        self.bound = 0
        #: Periods skipped and not yet materialised.
        self.skipped = 0


class _DrainToken:
    """The transfers of one worm's links ahead of its tail due at one
    timestamp, held in the transfer lane as one entry (see
    ``docs/fast_path.md``, "Draining a token")."""

    __slots__ = ("links", "levels", "skipped")

    def __init__(self, links: list[LinkState], levels: list[list[LinkState]]) -> None:
        #: The links ahead of the tail when the drain formed, in the lane
        #: order of their transfers.
        self.links = links
        #: The same links by level: ``levels[d]`` is peeled by pop ``d + 1``.
        self.levels = levels
        #: Periods advanced and not yet materialised (and levels peeled).
        self.skipped = 0


class _UnicastToken:
    """A unicast's transfers from its header's delivery to its tail push,
    held in the transfer lane as one entry per period (see
    ``docs/fast_path.md``, "Unicast tokens")."""

    __slots__ = ("ni", "mid", "links", "size", "push", "skipped")

    def __init__(
        self, ni: SourceInterface, mid: int, links: list[LinkState], push: int
    ) -> None:
        self.ni = ni
        self.mid = mid
        #: The unicast's path from its consumption link up to its injection
        #: link: the lane order of the run's transfers.
        self.links = links
        #: The run, whose transfers the token stands for, is
        #: ``links[:size]``; ``0`` until the token is verified (it then
        #: stands for the spine, ``links[1]``).
        self.size = 0
        #: The pop after verification at which the NI pushes the tail.
        self.push = push
        #: Periods advanced with no per-flit work and not yet materialised.
        self.skipped = 0


def _shift_plan(
    message: Message, next_seq: int, buffers: list[FlitBuffer], before: list[tuple[Flit, ...]]
) -> tuple[list[tuple[FlitBuffer, list[int]]], int] | None:
    """Compare a verified block's buffers with their contents before it.

    Every buffer must hold the same flits, each slot's seq advanced by 0 or
    by 1, and by 1 only for a body flit of ``message``.  Returns the
    buffers that advance with their per-slot deltas, and the bound: how
    many further periods can be skipped before the NI (whose cursor is now
    ``next_seq``) would push the tail or a shifted body flit would become
    one.  Returns ``None`` when a buffer did not shift, or no period can be
    skipped.
    """
    length = message.length_flits
    mid = message.mid
    bound = length - 1 - next_seq
    shifting: list[tuple[FlitBuffer, list[int]]] = []
    for buffer, pre in zip(buffers, before):
        post = buffer._slots
        if len(post) != len(pre):
            return None
        deltas = []
        for old, new in zip(pre, post):
            delta = new.seq - old.seq
            if new.kind is not old.kind or new.message_id != old.message_id:
                return None
            if delta:
                if delta != 1 or new.kind is not _BODY or new.message_id != mid:
                    return None
                bound = min(bound, length - 2 - new.seq)
            deltas.append(delta)
        if any(deltas):
            shifting.append((buffer, deltas))
    if bound < 1:
        return None
    return shifting, bound
