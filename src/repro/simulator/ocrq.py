"""Output channel request queues (OCRQs).

When the head of a worm enters a router it enqueues a request in the OCRQ of
every output channel it requires; a request for a *set* of output channels
is atomic (all of a message's requests are enqueued before any other message
can enqueue at that router — trivially true in a discrete-event simulator
because decision handling is not interleaved).  The message then waits until
all of its requests are at the heads of their OCRQs and all of the requested
channels are free, at which point it acquires all of them at once
(paper §3.2).

The FIFO order of the OCRQ is what makes channel acquisition starvation-free
(Theorem 2): a request at the head of a queue cannot be overtaken.

Requests are stored as references to the waiting *worm segment* (or any
object exposing ``message`` and ``try_acquire``), so that releasing a channel
can directly re-evaluate the next waiter without a reverse lookup.
"""

from __future__ import annotations

from typing import Any

from ..errors import SimulationError

__all__ = ["OutputChannelRequestQueue"]


class OutputChannelRequestQueue:
    """FIFO queue of worm segments waiting for one output channel.

    The waiters are a plain list, head first: a queue holds at most a few
    segments, and every link has one, so an empty ``deque`` (760 bytes on
    CPython 3.11, against 56 for an empty list) would cost more than its
    O(1) pop from the front saves.
    """

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: list[Any] = []

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """``True`` when no request is queued."""
        return not self._queue

    def __len__(self) -> int:
        return len(self._queue)

    def head(self):
        """The segment at the head of the queue, or ``None`` when empty."""
        return self._queue[0] if self._queue else None

    def enqueue(self, requester) -> None:
        """Append a request for ``requester``.

        A segment never requests the same channel twice, so a duplicate
        enqueue indicates a simulator bug and raises.
        """
        if any(existing is requester for existing in self._queue):
            raise SimulationError("segment already queued for this channel")
        self._queue.append(requester)

    def pop_head(self, requester) -> None:
        """Remove the head request, which must be ``requester``."""
        if not self._queue or self._queue[0] is not requester:
            raise SimulationError("segment tried to pop an OCRQ it does not head")
        del self._queue[0]

    def remove(self, requester) -> None:
        """Remove a queued request regardless of position (diagnostics/tests
        only; the normal protocol never abandons a request)."""
        for index, existing in enumerate(self._queue):
            if existing is requester:
                del self._queue[index]
                return
        raise SimulationError("segment is not queued")

    def waiting(self) -> tuple:
        """Snapshot of the queued segments, head first."""
        return tuple(self._queue)

    def waiting_message_ids(self) -> tuple[int, ...]:
        """Message ids of the queued segments, head first (for diagnostics)."""
        return tuple(segment.message.mid for segment in self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OCRQ({list(self.waiting_message_ids())})"
