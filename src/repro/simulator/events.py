"""Discrete-event queue.

The simulator is event driven: every state change is caused by a callback
scheduled at an integer nanosecond timestamp.  Events at the same timestamp
are processed in scheduling order (FIFO), which both makes runs perfectly
reproducible and provides the atomicity the OCRQ protocol relies on (a
message enqueues all of its channel requests within a single event).

Entries are ``(time, seq, kind, payload)`` tuples of three kinds, kept in
two lanes that share one ``seq`` counter:

* **generic events** (``kind == 0``) carry an arbitrary zero-argument
  callback and live in a binary heap, so the earliest generic deadline is
  simply the heap's head;
* **transfer events** (``kind == 1``) carry the :class:`~repro.simulator.links.LinkState`
  whose in-flight flit completes at the timestamp.  Every channel moves one
  flit per period, so a transfer always completes one period after it is
  scheduled: transfers arrive in ``(time, seq)`` order and live in a FIFO
  lane (a ``deque``) with no heap operation per flit hop.  The engine
  dispatches them directly to ``WormholeSimulator._complete_transfer``;
* **tokens** (``kind == 2``) live in the transfer lane too.  A worm token
  stands for all of one streaming worm's transfers due at its timestamp,
  and a drain token for those of the links ahead of a worm's injected
  tail; the per-flit engine keeps either block next to each other in the
  lane (see ``docs/fast_path.md``).  :meth:`EventQueue.fold_transfers`
  swaps such a block for one token under the block's first ``seq`` (for a
  drain, the tail's transfer stays behind it),
  :meth:`EventQueue.schedule_token` re-appends a token one period later
  with one fresh ``seq``, and :meth:`EventQueue.unfold_tokens` expands
  every token back into its transfers, in place and under the token's
  ``seq``.

Popping takes whichever lane head is smaller on ``(time, seq)``, which is
exactly the order one heap of every entry would give.  Entries of one
unfolded token share a ``seq``, but they sit next to each other in the lane
and lane entries are only ever compared with heap entries, whose ``seq`` is
unique.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable

from ..errors import SimulationError

__all__ = ["EventQueue"]

#: Entry tags (third tuple field; never compared because ``seq`` is unique
#: between the heap and the lane).
_GENERIC = 0
_TRANSFER = 1
_TOKEN = 2


class EventQueue:
    """A heap of generic events plus a FIFO lane of flit transfers (and
    worm tokens) that complete ``period_ns`` after they are scheduled."""

    __slots__ = ("_heap", "_lane", "_period", "_seq", "now")

    def __init__(self, period_ns: int, start_ns: int = 0) -> None:
        self._heap: list[tuple[int, int, int, object]] = []
        # Lane entries in (time, seq) order: each is scheduled one period
        # after a clock that never moves backwards, and a fold or an unfold
        # keeps the time and the place of the entries it replaces.
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
    # Worm tokens
    # ------------------------------------------------------------------
    def schedule_token(self, token) -> None:
        """Re-append ``token`` one channel period from now with one fresh
        ``seq``: where the block of transfers it stands for would have been
        rescheduled."""
        self._lane.append((self.now + self._period, self._seq, _TOKEN, token))
        self._seq += 1

    def fold_transfers(self, count: int, token, following: int = 0) -> None:
        """Replace ``count`` lane entries, one block of transfers due at one
        time with consecutive ``seq`` values, by ``token`` under the block's
        time and first ``seq``.  The block is the lane's tail, or is
        followed by the lane's last ``following`` entries, which stay where
        they are behind the token."""
        lane = self._lane
        kept = [lane.pop() for _ in range(following)]
        for _ in range(count - 1):
            lane.pop()
        time_ns, seq, _kind, _link = lane.pop()
        lane.append((time_ns, seq, _TOKEN, token))
        lane.extend(reversed(kept))

    def unfold_tokens(self, expand: Callable[[object], Iterable]) -> None:
        """Replace every token in the lane by the transfers ``expand(token)``
        returns, in place and under the token's time and ``seq``."""
        lane = self._lane
        entries: list[tuple[int, int, int, object]] = []
        for entry in lane:
            if entry[2] == _TOKEN:
                time_ns, seq, _kind, token = entry
                entries.extend((time_ns, seq, _TRANSFER, link) for link in expand(token))
            else:
                entries.append(entry)
        # In place, so the engine's run loop can keep its alias of the lane.
        lane.clear()
        lane.extend(entries)

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
