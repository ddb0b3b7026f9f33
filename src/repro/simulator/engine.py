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

Steady-state fast path
----------------------

The dominant cost of a run is one transfer event per flit per hop (a FIFO
append and pop, see :mod:`repro.simulator.events`).  Most of those events
occur during *steady-state streaming*: every worm segment is
``ACTIVE`` with all output channels acquired, every busy link completes one
flit per ``channel_latency_ns``, and the system state repeats period after
period except that each data-flit sequence number advances by one.

When ``SimulationConfig.fast_path`` is enabled (the default), the engine
detects this situation and coalesces it: it executes one full *period
window* — every event in ``[t0, t0 + channel_latency_ns)`` — through the
ordinary per-flit machinery, verifies that the window was *self-similar*,
and then replays ``m`` further windows arithmetically: flit sequence
numbers, source-NI cursors, ``flit_hops``, bubble counters, per-channel
counters, busy-time accounting, trace records and the pending transfer
deadlines are all advanced in O(links) instead of O(m × links) events.
``m`` is capped so the batch ends strictly before the first non-transfer
event, before any head or tail flit would move, and before a bounded run's
window boundary.  Three steady-state patterns coalesce, with no switch
beyond ``fast_path`` itself:

* **synchronized body streaming** — every pending transfer completes at the
  same deadline and every wire flit is a body flit shifted by exactly one
  sequence number per tick;
* **phase-staggered streaming** — pending transfers sit at several
  deadlines (congruence classes modulo the channel period) within one
  window, as happens when concurrently-active worms started on different
  cycles (e.g. Poisson arrivals); each class advances by the period
  independently;
* **bubble-periodic streaming** — blocked multicast branches emit a fixed
  set of bubbles per period (asynchronous replication); the window is
  self-similar *including* its bubble signature: bubble buffer contents
  are bit-identical, and the bubble-creation count, per-link bubble
  counters and ``bubble`` trace records advance by the same fixed amount
  every period.

The probe window is always one channel period, and that loses nothing:
every channel shares one latency (``SimulationConfig.channel_latency_ns``),
and deadlock-free routing keeps the buffer dependencies acyclic, so every
moving link fires every period.

**Equivalence guarantee:** because the verification window *is* the
reference execution and self-similarity is checked structurally (buffer
contents, segment states, event order), every observable quantity —
delivery timestamps, :class:`~repro.simulator.trace.Trace` records, message
records, ``flit_hops``, bubble counts and per-channel statistics — is
bit-identical to a run with ``fast_path=False``.  The trace-equivalence
tests in ``tests/test_fast_path.py`` assert this on the Figure 1 network and
on irregular lattice networks, including scenarios with
asynchronous-replication bubbles, OCRQ contention, Poisson and
negative-binomial arrivals, phase-staggered worms and bounded ``run_for``
windows.  Anything the verifier cannot prove self-similar simply runs on
the per-flit substrate.  ``docs/fast_path.md`` specifies the contract in
full, including the probe's phases and exit tiers and how to add a new
coalescible pattern safely; every ``coalesce*`` observability counter the
engine exposes, including the per-tier probe tally ``coalesce_exits``, is
documented in ``docs/engine_counters.md``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop
from typing import Callable, Iterable, NamedTuple, Sequence

from ..core.interface import RoutingAlgorithm
from ..core.multicast import normalize_destinations
from ..errors import ConfigurationError, DeadlockError, LivelockError, SimulationError
from ..obs import Telemetry
from ..topology.network import Network
from .config import SimulationConfig
from .deadlock import diagnose
from .events import EventQueue
from .flit import Flit, FlitKind
from .links import LinkState
from .message import Message
from .router import SegmentState, SourceInterface, WormSegment
from .stats import ChannelRecord, SimulationStats
from .trace import Trace, TraceEvent

__all__ = ["PROBE_TIERS", "WormholeSimulator"]

#: Signature of a per-destination delivery callback.
DeliveryCallback = Callable[[Message, int, int], None]
#: Signature of a message-completion callback.
CompletionCallback = Callable[[Message], None]

#: Minimum number of coalescible ticks for a batch advance to be worthwhile;
#: below this the snapshot/verify overhead exceeds the saved event traffic.
_MIN_BATCH_TICKS = 4

#: Ticks to wait before re-probing after a failed self-similarity check (or
#: a drain bail).  Failures cluster in churn phases (head crawls, drains,
#: bubble storms) where re-snapshotting every tick would cost more than it
#: saves; repeated failures double the backoff up to the cap below.  The
#: pair was re-tuned from 8/64 down to 4/32 once the drain bails rejected
#: most doomed windows before the snapshot: retrying sooner is then cheap,
#: and won ~8-10% end to end on paper-length (128-flit) mixed traffic.
_COALESCE_BACKOFF_TICKS = 4
_COALESCE_BACKOFF_MAX_TICKS = 32

# Enum members bound once as module constants for the per-flit handlers
# (see the note in ``router.py``: on CPython 3.10 and 3.11 an enum member
# lookup costs 150-220 ns more than a global read).
_HEAD = FlitKind.HEAD
_BODY = FlitKind.BODY
_TAIL = FlitKind.TAIL
_BUBBLE = FlitKind.BUBBLE
_ACTIVE = SegmentState.ACTIVE
_DONE = SegmentState.DONE

#: Probe exit tiers, cheapest first: ``_coalesce_tick`` returns one of these,
#: and ``PROBE_TIERS[tier]`` names its ``coalesce_exits`` slot and its
#: telemetry.  Below ``_VERIFY_FAILURE`` the probe touched no simulation
#: state; from it on, at least one window ran through the per-flit machinery.
_GENERIC_BAIL, _SCAN_REJECT, _DRAIN_BAIL, _VERIFY_FAILURE, _BATCH = range(5)
PROBE_TIERS = ("generic_bail", "scan_reject", "drain_bail", "verify_failure", "batch")


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
        # Fast-path bookkeeping: earliest time a coalesce attempt is allowed.
        # Each tick is probed at most once, and an attempt that paid for a
        # snapshot but failed verification backs off for a few ticks (failed
        # verifications cluster in churn phases such as worm drains).
        self._coalesce_gate_ns = 0
        self._coalesce_fail_streak = 0
        #: Number of ticks replayed arithmetically by the fast path (an
        #: engine-side observability counter; not part of the simulation's
        #: observable results, which are identical with the fast path off).
        self.coalesced_ticks = 0
        #: Of :attr:`coalesced_ticks`, how many were replayed from a window
        #: whose transfers were pending at more than one deadline (the
        #: phase-staggered pattern), and from a window that carried a
        #: per-tick bubble signature (the bubble-periodic pattern).  The two
        #: overlap when a staggered window also emits bubbles.
        self.coalesced_stagger_ticks = 0
        self.coalesced_bubble_ticks = 0
        #: Probe economics (observability for tuning ``_MIN_BATCH_TICKS`` and
        #: the backoff): ``coalesce_exits[tier]`` counts the probes that
        #: exited through each tier, indexed like :data:`PROBE_TIERS`.
        self.coalesce_exits = [0] * len(PROBE_TIERS)
        #: Tail deliveries recorded so far (cheap sentinel the fast-path
        #: verifier compares to prove no destination was reached inside a
        #: probed window; not an observable result).
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
            (defaults to the current simulation time).
        length_flits:
            Worm length; defaults to the configuration's message length.
        metadata:
            Free-form annotations copied onto the message.
        """
        if not self.network.is_processor(source):
            raise ConfigurationError(f"source {source} is not a processor")
        dests = normalize_destinations(self.network, source, destinations)
        self.routing.validate_destinations(_DestinationView(source, dests))
        at = self.now if at_ns is None else max(at_ns, self.now)
        message = Message(
            mid=self._next_mid,
            source=source,
            destinations=dests,
            length_flits=(
                self.config.message_length_flits if length_flits is None else length_flits
            ),
            created_ns=at,
        )
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

        Bounded runs advance the clock to the window boundary on return, so
        that back-to-back ``run_for`` windows tile time exactly and
        time-based rates divide by the intended duration.

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
        fast = self.config.fast_path
        complete_transfer = self._complete_transfer
        # Telemetry selects the probe entry point once, outside the loop:
        # without a recorder the loop calls the raw probe and pays nothing
        # per event; with one it goes through the timing wrapper, which
        # labels one span with the tier the probe returned.
        telemetry = self.telemetry
        coalesce = self._coalesce_tick if telemetry is None else self._coalesce_tick_timed
        exits = self.coalesce_exits
        executed = _VERIFY_FAILURE
        run_start_ns = 0 if telemetry is None else telemetry.clock()
        # The loop body below is ``pop_entry()`` unrolled by hand: this is the
        # hottest loop in the repository and method/property calls per event
        # are measurable.  ``heap`` and ``lane`` alias the live queues (batch
        # retimes are in-place), so pushes from callbacks remain visible.
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
                    # Probe whenever the earliest event is a flit transfer;
                    # generic events pending further out (queued submits, a
                    # later startup) only cap the batch length —
                    # _coalesce_tick bails in O(1) on the generic heap's head
                    # when the cap would be too small, and otherwise ends
                    # every batch strictly before the first of them fires.
                    if fast and t0 >= self._coalesce_gate_ns:
                        tier = coalesce(t0, until_ns)
                        exits[tier] += 1
                        if tier >= executed:
                            continue
                    popleft()
                    events.now = t0
                    complete_transfer(entry[3])
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
            # A bounded run owns the whole window: land exactly on the
            # boundary even if the last event fired earlier (or none did).
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
        if until_ns is None and self.config.deadlock_detection:
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
    # Steady-state coalescing fast path
    # ------------------------------------------------------------------
    def _coalesce_tick(self, t0: int, until_ns: int | None) -> int:
        """Probe the steady-state pattern starting at ``t0``; return the
        probe's exit tier.

        Phases, cheapest first; the first that rules out a batch ends the
        probe with its tier (``docs/fast_path.md`` has the table):

        1. bail (here, O(1) on the earliest generic deadline) —
           ``_GENERIC_BAIL``;
        2. :meth:`_probe_scan` (one pass over the transfer lane) —
           ``_SCAN_REJECT`` or ``_DRAIN_BAIL``;
        3. :meth:`_probe_snapshot` (the closure of touchable state);
        4. :meth:`_probe_execute` (run the window ``[t0, t0 + L)`` through
           the per-flit machinery and examine it) — ``_VERIFY_FAILURE``;
        5. :meth:`_probe_replay` — ``_BATCH``, or ``_VERIFY_FAILURE`` when
           the replay would be too short to pay.
        """
        latency = self.config.channel_latency_ns
        # Probe each window at most once (a failed probe closes the gate for
        # longer; see _coalesce_pause).
        self._coalesce_gate_ns = t0 + latency
        # -- Bail: the generic heap's head is the earliest pending generic
        # deadline.  Every batch must end strictly before it, so even in the
        # best case (all transfers at t0) the batch length is bounded by
        # (t_other - 1 - t0) // latency; when that optimistic bound is
        # already below the worthwhile minimum — the dominant rejection in
        # churn phases, where submits/decisions/acquisitions queue close by —
        # the probe exits before paying for any scan or snapshot.
        heap = self.events._heap
        t_other: int | None = heap[0][0] if heap else None
        if t_other is not None and (t_other - 1 - t0) // latency < _MIN_BATCH_TICKS + 1:
            return _GENERIC_BAIL
        window = self._probe_scan(t0, until_ns, t_other)
        if isinstance(window, int):
            return window
        off_class, moving = window
        snapshot = self._probe_snapshot(moving)
        plan = self._probe_execute(t0, snapshot)
        if isinstance(plan, int):
            return plan
        return self._probe_replay(t0, until_ns, t_other, off_class, snapshot, plan)

    def _probe_scan(
        self, t0: int, until_ns: int | None, t_other: int | None
    ) -> int | tuple[bool, list[tuple[int, LinkState, bool]]]:
        """Phase 2: one pass over the transfer lane, in completion order.

        Every pending transfer must complete within the window, every wire
        flit must be a body flit or a bubble, and a wire flit that is the
        last one queued must have a feeder that can still refill the
        buffer; the replay the window allows must also be worthwhile.  This
        rejects head crawls and worm-drain phases before paying for a
        snapshot.

        Returns the exit tier (``_SCAN_REJECT`` or ``_DRAIN_BAIL``) when the
        window is rejected, else ``(off_class, moving)``: whether the
        transfers span several deadline classes (the phase-staggered
        pattern), and the pending transfers in per-flit completion order as
        ``(deadline, link, wire flit is a bubble)``.
        """
        events = self.events
        latency = self.config.channel_latency_ns
        horizon = t0 + latency
        messages = self.messages
        d_max = t0
        off_class = False
        flit_cap: int | None = None
        for time_ns, _seq, _kind, payload in events._lane:
            if time_ns != t0:
                if time_ns >= horizon:
                    return _SCAN_REJECT
                off_class = True
                if time_ns > d_max:
                    d_max = time_ns
            out_slots = payload.out_buffer._slots
            if not out_slots:
                return _SCAN_REJECT
            flit = out_slots[0]
            flit_kind = flit.kind
            if flit_kind is _BODY:
                limit = messages[flit.message_id].length_flits - 2 - flit.seq
                if flit_cap is None or limit < flit_cap:
                    flit_cap = limit
            elif flit_kind is not _BUBBLE:
                return _SCAN_REJECT
            in_buffer = payload.in_buffer
            if len(in_buffer._slots) >= in_buffer.capacity:
                # -- Drain bail (blocked receiver): the receiving input
                # buffer is full and its segment cannot drain it (it is
                # still waiting on router setup or channel acquisition), so
                # the wire cannot restart after this completion.  The only
                # escape is an acquisition, which changes segment state and
                # fails verification just as surely — so the probe skips
                # the doomed snapshot.  The worm parked behind an OCRQ wait
                # or a crawling head looks exactly like this.
                sink = payload.sink_segment
                if sink is None or sink.state is not _ACTIVE:
                    return self._coalesce_pause(t0, latency, _DRAIN_BAIL)
            if len(out_slots) == 1:
                # -- Drain bail: the wire flit is the last one queued and the
                # feeder provably cannot refill the buffer, so the link goes
                # idle after this completion and the window can never
                # verify.  Detecting it here skips the doomed snapshot (the
                # dominant paid-verify failure during worm drains) but still
                # takes the verify-failure backoff, because a drain is
                # exactly the churn the backoff exists to wait out.
                feeder = payload.feeder
                if feeder is None:
                    return self._coalesce_pause(t0, latency, _DRAIN_BAIL)
                if type(feeder) is SourceInterface:
                    current = feeder.current
                    if current is None or feeder.next_seq >= current.length_flits - 1:
                        # Nothing, or only the tail, left to pump: either the
                        # buffer never refills, or the injection finishes and
                        # the NI visibly changes message state mid-window.
                        return self._coalesce_pause(t0, latency, _DRAIN_BAIL)
                elif feeder.state is _DONE or (
                    not feeder.in_link.busy and not feeder.in_link.in_buffer._slots
                ):
                    # A finished segment never writes again, and one with an
                    # idle, empty feed cannot write within the window.
                    return self._coalesce_pause(t0, latency, _DRAIN_BAIL)
        # -- Economics precheck (the exact cap is recomputed in the replay).
        cap = flit_cap
        if t_other is not None:
            # Every replayed window must end strictly before the first
            # generic event; the window's latest deadline is the binding one.
            other_cap = (t_other - 1 - d_max) // latency
            if cap is None or other_cap < cap:
                cap = other_cap
        if until_ns is not None:
            cap_until = (until_ns - d_max) // latency
            if cap is None or cap_until < cap:
                cap = cap_until
        if cap is not None and cap < _MIN_BATCH_TICKS + 1:
            return _SCAN_REJECT
        if flit_cap is None and cap is None:
            # A pure-bubble window with no bounding event: the stall that
            # feeds the bubbles can only resolve through an event this scan
            # cannot see, so never replay it arithmetically.
            return _SCAN_REJECT
        moving = [
            (time_ns, link, link.out_buffer._slots[0].kind is _BUBBLE)
            for time_ns, _seq, _kind, link in events._lane
        ]
        return off_class, moving

    def _probe_snapshot(self, moving: list[tuple[int, LinkState, bool]]) -> _ProbeSnapshot:
        """Phase 3: snapshot the closure of state the window can touch: the
        moving links plus every buffer their sink segments replicate into
        and their feeders drain from."""
        closure = dict.fromkeys(link for _time, link, _bubble in moving)
        segments: dict[WormSegment, None] = {}
        interfaces: dict[SourceInterface, None] = {}
        for link in list(closure):
            for party in (link.sink_segment, link.feeder):
                if party is None:
                    continue
                if type(party) is SourceInterface:
                    interfaces[party] = None
                elif party not in segments:
                    segments[party] = None
                    for other in (party.in_link, *party.outputs):
                        closure[other] = None
        stats = self.stats
        trace = self.trace
        return _ProbeSnapshot(
            moving=moving,
            links=[
                (
                    link,
                    (
                        link.busy,
                        link.reserved_by,
                        link.feeder,
                        link.sink_segment,
                        _buffer_signature(link.out_buffer),
                        _buffer_signature(link.in_buffer),
                    ),
                )
                for link in closure
            ],
            segments=[
                (seg, seg.state, seg.head_replicated, tuple(seg.outputs), tuple(seg.required))
                for seg in segments
            ],
            interfaces=[(ni, ni.current, ni.next_seq, len(ni.queue)) for ni in interfaces],
            flit_hops=stats.flit_hops,
            bubbles=stats.bubbles_created,
            counters=(stats.messages_completed, len(self._segments), self._delivery_count),
            trace_len=len(trace.events) if trace is not None else 0,
            generic_len=len(self.events._heap),
        )

    def _probe_execute(self, t0: int, snapshot: _ProbeSnapshot) -> int | tuple:
        """Phase 4: execute the window ``[t0, t0 + L)`` through the per-flit
        machinery and examine it.

        Whatever happens, everything executed here is exactly the reference
        execution, so a probe that does not verify has simply run the
        simulation forward.  Returns the plan of a self-similar window (see
        :meth:`_probe_examine`), else ends the probe with
        ``_VERIFY_FAILURE``.
        """
        events = self.events
        latency = self.config.channel_latency_ns
        heap = events._heap
        lane = events._lane
        pop_entry = events.pop_entry
        complete_transfer = self._complete_transfer
        exec_end = t0 + latency
        executed_generic = False
        while (lane and lane[0][0] < exec_end) or (heap and heap[0][0] < exec_end):
            entry = pop_entry()
            if entry[2]:
                complete_transfer(entry[3])
            else:
                # Unreachable after the generic bail (no generic deadline
                # fits inside the window), but a generic that does fire ran
                # as reference and simply disqualifies the probe.
                executed_generic = True
                entry[3]()
        if not executed_generic:
            plan = self._probe_examine(snapshot)
            if plan is not None:
                return plan
        return self._coalesce_pause(t0, latency, _VERIFY_FAILURE)

    def _probe_examine(self, snapshot: _ProbeSnapshot) -> tuple | None:
        """Compare the current state against the snapshot shifted by one
        period.  Returns the replay plan when the window was self-similar,
        else ``None``.

        The plan is ``(shifting, pushing, bound, bubble_rate)``: the
        buffers whose slots advance with each slot's per-period ``seq``
        delta (0 or 1), the NIs whose ``next_seq`` advances by one, the
        number of further periods before any body flit would become a tail
        (``None`` for a pure fixed point), and the bubbles created per
        period.
        """
        stats = self.stats
        events = self.events
        messages = self.messages
        shift = self.config.channel_latency_ns
        if (
            stats.messages_completed,
            len(self._segments),
            self._delivery_count,
        ) != snapshot.counters:
            return None
        if len(events._heap) != snapshot.generic_len:
            return None
        for seg, state, head_replicated, outputs, required in snapshot.segments:
            if (
                seg.state is not state
                or seg.head_replicated != head_replicated
                or tuple(seg.outputs) != outputs
                or tuple(seg.required) != required
            ):
                return None
        moving = snapshot.moving
        if len(events._lane) != len(moving):
            return None
        for entry, (pre_time, link, _bubble) in zip(events._lane, moving):
            if entry[0] != pre_time + shift or entry[3] is not link:
                return None
        bound: int | None = None
        pushing: list[SourceInterface] = []
        for ni, current, next_seq, backlog in snapshot.interfaces:
            if ni.current is not current or len(ni.queue) != backlog:
                return None
            delta = ni.next_seq - next_seq
            if delta:
                if current is None or delta != 1:
                    return None
                limit = current.length_flits - 1 - ni.next_seq
                if bound is None or limit < bound:
                    bound = limit
                pushing.append(ni)
        shifting: list[tuple[object, tuple, list[int]]] = []
        for link, snap in snapshot.links:
            busy, reserved_by, feeder, sink, out_flits, in_flits = snap
            if (
                link.reserved_by != reserved_by
                or link.feeder is not feeder
                or link.sink_segment is not sink
                or link.busy != busy
            ):
                return None
            for pre_flits, buffer in (
                (out_flits, link.out_buffer),
                (in_flits, link.in_buffer),
            ):
                post_flits = _buffer_signature(buffer)
                if post_flits == pre_flits:
                    # Unchanged contents: either the buffer was not
                    # touched, or a bubble was re-emitted with the
                    # identical signature (bubbles reuse the stalled
                    # data flit's sequence number, so a periodic bubble
                    # stream is a fixed point here).
                    continue
                if len(post_flits) != len(pre_flits):
                    return None
                deltas: list[int] = []
                for (kind0, mid0, seq0), (kind1, mid1, seq1) in zip(pre_flits, post_flits):
                    delta = seq1 - seq0
                    if (
                        kind1 is not kind0
                        or mid1 != mid0
                        or delta < 0
                        or delta > 1
                        or (delta and kind1 is not _BODY)
                    ):
                        return None
                    if delta:
                        limit = messages[mid1].length_flits - 2 - seq1
                        if bound is None or limit < bound:
                            bound = limit
                    deltas.append(delta)
                shifting.append((buffer, post_flits, deltas))
        bubble_rate = stats.bubbles_created - snapshot.bubbles
        return shifting, pushing, bound, bubble_rate

    def _probe_replay(
        self,
        t0: int,
        until_ns: int | None,
        t_other: int | None,
        off_class: bool,
        snapshot: _ProbeSnapshot,
        plan: tuple,
    ) -> int:
        """Phase 5: replay ``m`` further windows arithmetically and return
        ``_BATCH`` — or end the probe with ``_VERIFY_FAILURE`` when no
        worthwhile ``m`` fits."""
        events = self.events
        latency = self.config.channel_latency_ns
        shifting, pushing, bound, bubble_rate = plan
        now_ns = events.now
        m = bound
        if t_other is not None:
            # The last replayed event must land strictly before the first
            # generic deadline.
            limit = (t_other - 1 - now_ns) // latency
            if m is None or limit < m:
                m = limit
        if until_ns is not None:
            limit = (until_ns - now_ns) // latency
            if m is None or limit < m:
                m = limit
        # m is None for a pure fixed point (no advancing flit or NI cursor)
        # with no bounding event: it cannot be replayed a finite number of
        # times.
        if m is None or m < _MIN_BATCH_TICKS:
            return self._coalesce_pause(t0, latency, _VERIFY_FAILURE)
        advance = m * latency
        stats = self.stats
        stats.flit_hops += m * (stats.flit_hops - snapshot.flit_hops)
        stats.bubbles_created += m * bubble_rate
        if self._collect_stats:
            for _time, link, bubble in snapshot.moving:
                link.fast_forward(m, advance, bubble)
        for buffer, post_flits, deltas in shifting:
            buffer.replace_contents(
                Flit(kind, mid, seq + m * delta)
                for (kind, mid, seq), delta in zip(post_flits, deltas)
            )
        for ni in pushing:
            ni.next_seq += m
        trace = self.trace
        if trace is not None and len(trace.events) != snapshot.trace_len:
            # A self-similar window records the identical trace events every
            # period (bubble records carry only message/switch fields), so
            # the replayed windows' records are the window's shifted in time.
            window_records = trace.events[snapshot.trace_len :]
            append = trace.events.append
            for tick in range(1, m + 1):
                delta = tick * latency
                for record in window_records:
                    append(TraceEvent(record.time_ns + delta, record.kind, record.fields))
        events.shift_transfers(advance)
        self._coalesce_fail_streak = 0
        self.coalesced_ticks += m
        if off_class:
            self.coalesced_stagger_ticks += m
        if bubble_rate:
            self.coalesced_bubble_ticks += m
        return _BATCH

    def _coalesce_pause(self, t0: int, latency: int, tier: int) -> int:
        """Churn backoff for the two tiers that signal churn; returns
        ``tier``.

        ``_VERIFY_FAILURE``: a probe paid for a snapshot without batching
        (the window was not self-similar, or its replay was too short to
        pay); the window itself ran through the reference machinery.
        ``_DRAIN_BAIL``: the cheap scan proved the window can never verify
        (a draining link whose feeder cannot refill it), so nothing ran and
        no snapshot was wasted.  Either way the system is in a churn phase:
        bump the failure streak and close the probe gate exponentially
        longer while the failures keep coming (e.g. a long bubble storm on
        a big multicast tree)."""
        streak = self._coalesce_fail_streak
        self._coalesce_fail_streak = streak + 1
        # min() the shift amount, not just the result: an unbounded shift
        # would build ever-larger big-ints over a long churn-heavy run.
        ticks = min(_COALESCE_BACKOFF_TICKS << min(streak, 3), _COALESCE_BACKOFF_MAX_TICKS)
        self._coalesce_gate_ns = t0 + ticks * latency
        return tier

    # ------------------------------------------------------------------
    # Wall-clock telemetry (observability only; see docs/observability.md)
    # ------------------------------------------------------------------
    def _coalesce_tick_timed(self, t0: int, until_ns: int | None) -> int:
        """Instrumented twin of :meth:`_coalesce_tick`: one ``engine.probe``
        span around one call, labelled with the tier the probe returned.

        ``run()`` binds this instead of the raw probe when it holds a
        recorder; the probe itself never reads the clock.
        """
        tel = self.telemetry
        clock = tel.clock
        start_ns = clock()
        tier = self._coalesce_tick(t0, until_ns)
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
        # already restart this link; otherwise try to restart it here.
        feeder = link.feeder
        if feeder is not None:
            feeder.try_advance()
        if not link.busy and link.out_buffer._slots:
            self.try_start_transfer(link)

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
        if message.hops > self.config.max_hops:
            raise LivelockError(
                f"message {message.mid} exceeded {self.config.max_hops} hops; "
                f"the routing algorithm {self.routing.name!r} is not making progress"
            )
        segment = WormSegment(self, message, switch, link)
        link.sink_segment = segment
        self._segments.add(segment)
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


def _buffer_signature(buffer) -> tuple:
    """A buffer's contents as ``(kind, message_id, seq)`` triples, the form
    the fast-path probe snapshots and compares."""
    return tuple((f.kind, f.message_id, f.seq) for f in buffer.flits())


class _ProbeSnapshot(NamedTuple):
    """What a fast-path probe captured before running its windows
    (:meth:`WormholeSimulator._probe_snapshot`): the examine phase compares
    the executed windows against it and the replay phase advances from it."""

    #: Pending transfers in completion order: ``(deadline, link, bubble)``.
    moving: list[tuple[int, LinkState, bool]]
    #: ``(link, (busy, reserved_by, feeder, sink, out_flits, in_flits))``.
    links: list[tuple[LinkState, tuple]]
    #: ``(segment, state, head_replicated, outputs, required)``.
    segments: list[tuple]
    #: ``(ni, current message, next_seq, backlog)``.
    interfaces: list[tuple]
    flit_hops: int
    bubbles: int
    #: ``(messages_completed, live segments, deliveries)``.
    counters: tuple[int, int, int]
    trace_len: int
    generic_len: int


class _DestinationView:
    """Minimal message view used for early destination validation."""

    __slots__ = ("source", "destinations", "routing_data")

    def __init__(self, source: int, destinations: tuple[int, ...]) -> None:
        self.source = source
        self.destinations = destinations
        self.routing_data: dict = {}
