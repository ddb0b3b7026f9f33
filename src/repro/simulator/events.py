"""Discrete-event queue.

The simulator is event driven: every state change is caused by a callback
scheduled at an integer nanosecond timestamp.  Events at the same timestamp
are processed in scheduling order (FIFO), which both makes runs perfectly
reproducible and provides the atomicity the OCRQ protocol relies on (a
message enqueues all of its channel requests within a single event).

Entries are ``(time, seq, kind, payload)`` tuples of two kinds, kept in two
lanes that share one ``seq`` counter:

* **generic events** (``kind == 0``) carry an arbitrary zero-argument
  callback and live in a binary heap, so the earliest generic deadline is
  simply the heap's head;
* **transfer events** (``kind == 1``) carry the :class:`~repro.simulator.links.LinkState`
  whose in-flight flit completes at the timestamp.  Every channel moves one
  flit per period, so a transfer always completes one period after it is
  scheduled: transfers arrive in ``(time, seq)`` order and live in a FIFO
  lane (a ``deque``) with no heap operation per flit hop.  The engine
  dispatches them directly to ``WormholeSimulator._complete_transfer``.

Popping takes whichever lane head is smaller on ``(time, seq)``, which is
exactly the order one heap of both kinds would give.  The engine's fast path
(``WormholeSimulator._coalesce_tick``) probes when the transfer lane's head
comes first, reads the earliest generic deadline from the heap's head to
bound (or bail out of) a batch, and walks the lane in completion order.
After a verified batch the engine retimes every pending transfer in bulk
with :meth:`EventQueue.shift_transfers` by a whole number of channel
periods; every entry keeps its congruence class modulo the period.
The coalescing contract this upholds is specified in ``docs/fast_path.md``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

from ..errors import SimulationError

__all__ = ["EventQueue"]

#: Entry tags (third tuple field; never compared because ``seq`` is unique).
_GENERIC = 0
_TRANSFER = 1


class EventQueue:
    """A heap of generic events plus a FIFO lane of flit transfers that
    complete ``period_ns`` after they are scheduled."""

    __slots__ = ("_heap", "_lane", "_period", "_seq", "now")

    def __init__(self, period_ns: int, start_ns: int = 0) -> None:
        self._heap: list[tuple[int, int, int, object]] = []
        # Transfer entries in (time, seq) order: each is scheduled one
        # period after a clock that never moves backwards, and a shift moves
        # the clock and every transfer by the same amount.
        self._lane: deque[tuple[int, int, int, object]] = deque()
        self._period = period_ns
        self._seq = 0
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
        self._seq += 1

    def schedule_after(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay_ns`` nanoseconds from now."""
        self.schedule(self.now + delay_ns, callback)

    def schedule_transfer(self, link) -> None:
        """Schedule the completion of a flit transfer on ``link`` one channel
        period from now.

        Stored as a tagged entry carrying the link itself, so completing a
        transfer costs no closure allocation and the engine's fast path can
        inspect pending transfers without executing them.
        """
        self._lane.append((self.now + self._period, self._seq, _TRANSFER, link))
        self._seq += 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop_entry(self) -> tuple[int, int, int, object]:
        """Pop the earliest entry ``(time, seq, kind, payload)`` and advance
        the clock to its timestamp."""
        heap = self._heap
        lane = self._lane
        if lane and (not heap or lane[0] < heap[0]):
            entry = lane.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            raise SimulationError("pop from an empty event queue")
        self.now = entry[0]
        return entry

    def __len__(self) -> int:
        return len(self._heap) + len(self._lane)

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
        head = min((queue[0][0] for queue in (self._heap, self._lane) if queue), default=None)
        if head is not None and head < time_ns:
            raise SimulationError(
                f"cannot advance the clock to {time_ns} ns past a pending event at {head} ns"
            )
        self.now = time_ns

    def shift_transfers(self, delta_ns: int) -> None:
        """Batch-advance: move the clock and every pending transfer deadline
        ``delta_ns`` into the future, preserving both each transfer's
        congruence class (deadline mod any period dividing ``delta_ns``) and
        the transfers' FIFO order.  Generic entries are untouched.

        The engine calls this after arithmetically replaying ``m`` identical
        steady-state windows of the channel period ``P`` (``delta_ns =
        m·P``): transfers that were pending at staggered deadlines ``d``
        within the window must land at ``d + m·P``, exactly where the
        per-flit execution would have rescheduled them (a synchronized
        window is simply the special case where every deadline is the
        same).
        """
        now_ns = self.now + delta_ns
        if delta_ns < 0:
            raise SimulationError("transfer shift would move time backwards")
        if self._heap and self._heap[0][0] < now_ns:
            raise SimulationError("transfer shift would overtake a pending generic event")
        # The shifted transfers take fresh sequence numbers, after every
        # pending generic event's: each of those was scheduled before the
        # transfers were (re)scheduled, so on a timestamp tie the per-flit
        # execution would run it first.
        lane = self._lane
        shifted = [
            (time_ns + delta_ns, seq, _TRANSFER, link)
            for seq, (time_ns, _seq, _kind, link) in enumerate(lane, self._seq)
        ]
        self._seq += len(shifted)
        # In place, so the engine's run loop can keep its alias of the lane.
        lane.clear()
        lane.extend(shifted)
        self.now = now_ns
