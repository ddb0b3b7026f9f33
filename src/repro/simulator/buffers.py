"""Fixed-capacity FIFO flit buffers.

Every unidirectional channel has an output buffer at its transmitting router
and an input buffer at its receiving router.  The paper's central claim is
that SPAM stays deadlock-free even when these are a single flit deep, and
that their size is entirely independent of the message length; the depth is
therefore a constructor parameter exercised by the buffer-depth ablation
benchmark.
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError
from .flit import Flit

__all__ = ["FlitBuffer"]


class FlitBuffer:
    """A FIFO queue of flits with a fixed capacity.

    The buffer deliberately raises on misuse (pushing when full, popping when
    empty) instead of silently dropping flits: wormhole flow control never
    drops flits, so any such call indicates a simulator bug.  The engine's
    per-flit handlers work on ``_slots`` directly and make the same checks
    inline.
    """

    __slots__ = ("capacity", "_slots")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("buffer capacity must be at least one flit")
        self.capacity = capacity
        self._slots: deque[Flit] = deque()

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of flits currently held."""
        return len(self._slots)

    @property
    def free_slots(self) -> int:
        """Number of additional flits the buffer can accept."""
        return self.capacity - len(self._slots)

    @property
    def is_empty(self) -> bool:
        """``True`` when no flit is held."""
        return not self._slots

    @property
    def is_full(self) -> bool:
        """``True`` when no more flits can be accepted."""
        return len(self._slots) >= self.capacity

    # ------------------------------------------------------------------
    def push(self, flit: Flit) -> None:
        """Append ``flit``; raises if the buffer is full."""
        if len(self._slots) >= self.capacity:
            raise SimulationError("push into a full flit buffer")
        self._slots.append(flit)

    def peek(self) -> Flit:
        """The oldest flit without removing it; raises if empty."""
        if not self._slots:
            raise SimulationError("peek into an empty flit buffer")
        return self._slots[0]

    def pop(self) -> Flit:
        """Remove and return the oldest flit; raises if empty."""
        if not self._slots:
            raise SimulationError("pop from an empty flit buffer")
        return self._slots.popleft()

    def flits(self) -> tuple[Flit, ...]:
        """Snapshot of the buffer contents, oldest first (for diagnostics)."""
        return tuple(self._slots)

    def replace_contents(self, flits) -> None:
        """Replace the whole buffer contents, oldest first.

        Used by the engine's steady-state fast path to substitute the flits
        that a batch of coalesced ticks would have left here; fresh flit
        objects avoid any aliasing with flits held elsewhere.
        """
        slots = deque(flits)
        if len(slots) > self.capacity:
            raise SimulationError("replacement exceeds buffer capacity")
        self._slots = slots

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlitBuffer({len(self._slots)}/{self.capacity})"
