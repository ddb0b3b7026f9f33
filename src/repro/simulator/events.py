"""Discrete-event queue.

The simulator is event driven: every state change is caused by a callback
scheduled at an integer nanosecond timestamp.  Events at the same timestamp
are processed in scheduling order (FIFO), which both makes runs perfectly
reproducible and provides the atomicity the OCRQ protocol relies on (a
message enqueues all of its channel requests within a single event).

Entries come in two kinds, distinguished by an integer tag so the engine
never allocates a closure per flit transfer:

* **generic events** (``kind == 0``) carry an arbitrary zero-argument
  callback, exactly like the original ``(time, seq, callback)`` design;
* **transfer events** (``kind == 1``) carry the :class:`~repro.simulator.links.LinkState`
  whose in-flight flit completes at the timestamp.  The engine dispatches
  these directly to ``WormholeSimulator._complete_transfer`` — no
  ``functools.partial`` is built on the hot path.

The queue additionally tracks how many pending entries are transfer events
(``_transfer_pending``) and maintains the *earliest generic deadline* — a
min-heap of the pending generic entries' timestamps (``_generic_times``).
When the *earliest* pending entry is a transfer the simulator may be in a
steady-state streaming phase; the engine's fast path
(``WormholeSimulator._coalesce_tick``) probes that case, consults the
earliest generic deadline in O(1) to bail out of windows whose batches a
nearby generic event would cut below the worthwhile minimum (the common case
during churn phases; the bail is counted at most once per probe), and uses
the tag in each entry to bound surviving batches strictly before the next
generic event.
After a verified batch the engine retimes the surviving transfer entries in
bulk with :meth:`EventQueue.shift_transfers` by a whole number of channel
periods; every entry keeps its congruence class modulo the period.
The coalescing contract this upholds is specified in ``docs/fast_path.md``.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..errors import SimulationError

__all__ = ["EventQueue"]

#: Entry tags (third tuple field; never compared because ``seq`` is unique).
_GENERIC = 0
_TRANSFER = 1


class EventQueue:
    """A binary-heap priority queue of ``(time, seq, kind, payload)`` events."""

    __slots__ = ("_heap", "_seq", "_transfer_pending", "_generic_times", "now")

    def __init__(self, start_ns: int = 0) -> None:
        self._heap: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self._transfer_pending = 0
        # Min-heap of pending generic entries' timestamps.  Because the main
        # heap pops in global (time, seq) order, generic entries leave in
        # nondecreasing-time order too, so popping this heap alongside keeps
        # it exact — giving the engine's fast path the earliest generic
        # deadline in O(1) without scanning the heap.
        self._generic_times: list[int] = []
        #: Current simulation time (time of the most recently popped event).
        self.now = start_ns

    def schedule(self, time_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at ``time_ns``.

        Scheduling in the past is a simulator bug and raises immediately
        rather than silently reordering history.
        """
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time_ns} ns, current time is {self.now} ns"
            )
        heapq.heappush(self._heap, (time_ns, self._seq, _GENERIC, callback))
        heapq.heappush(self._generic_times, time_ns)
        self._seq += 1

    def schedule_after(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay_ns`` nanoseconds from now."""
        self.schedule(self.now + delay_ns, callback)

    def schedule_transfer(self, delay_ns: int, link) -> None:
        """Schedule the completion of a flit transfer on ``link``.

        Stored as a tagged entry carrying the link itself, so completing a
        transfer costs no closure allocation and the engine's fast path can
        inspect pending transfers without executing them.
        """
        time_ns = self.now + delay_ns
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule an event at {time_ns} ns, current time is {self.now} ns"
            )
        heapq.heappush(self._heap, (time_ns, self._seq, _TRANSFER, link))
        self._seq += 1
        self._transfer_pending += 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop_entry(self) -> tuple[int, int, int, object]:
        """Pop the earliest entry ``(time, seq, kind, payload)`` and advance
        the clock to its timestamp."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        if entry[2] == _TRANSFER:
            self._transfer_pending -= 1
        else:
            heapq.heappop(self._generic_times)
        return entry

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    # Fast-path mutation
    # ------------------------------------------------------------------
    def advance_to(self, time_ns: int) -> None:
        """Advance the clock to ``time_ns`` without executing anything.

        Used by bounded runs to land exactly on the window boundary; never
        moves the clock backwards and never past a pending event.
        """
        if time_ns <= self.now:
            return
        head = self._heap[0][0] if self._heap else None
        if head is not None and head < time_ns:
            raise SimulationError(
                f"cannot advance the clock to {time_ns} ns past a pending event at {head} ns"
            )
        self.now = time_ns

    def shift_transfers(self, now_ns: int, delta_ns: int) -> None:
        """Batch-advance: move the clock to ``now_ns`` and push every pending
        transfer deadline ``delta_ns`` into the future, preserving both each
        entry's congruence class (deadline mod any period dividing
        ``delta_ns``) and the relative (time, FIFO) order of the transfers.
        Generic entries are untouched.

        The engine calls this after arithmetically replaying ``m`` identical
        steady-state windows of the channel period ``P`` (``delta_ns =
        m·P``): transfers that were pending at staggered deadlines ``d``
        within the window must land at ``d + m·P``, exactly where the
        per-flit execution would have rescheduled them (a synchronized
        window is simply the special case where every deadline is the
        same).
        """
        if delta_ns < 0 or now_ns < self.now:
            raise SimulationError("transfer shift would move time backwards")
        entries = sorted(self._heap)
        rebased = []
        # Generic entries keep their deadlines and receive the smaller fresh
        # sequence numbers: any generic event still pending was scheduled
        # before the transfers were (re)scheduled, so on a timestamp tie the
        # per-flit execution would run it first.
        for entry in entries:
            if entry[2] != _TRANSFER:
                if entry[0] < now_ns:
                    raise SimulationError(
                        "transfer shift would overtake a pending generic event"
                    )
                rebased.append((entry[0], self._seq, entry[2], entry[3]))
                self._seq += 1
        for entry in entries:
            if entry[2] == _TRANSFER:
                rebased.append((entry[0] + delta_ns, self._seq, _TRANSFER, entry[3]))
                self._seq += 1
        rebased.sort()
        # In-place so aliases of the heap list (the engine's run loop holds
        # one) stay valid; a sorted list is a valid heap.
        self._heap[:] = rebased
        self.now = now_ns
