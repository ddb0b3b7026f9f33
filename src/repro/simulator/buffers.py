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

    The per-flit handlers work on ``_slots`` (a deque, oldest first) directly
    and check ``capacity`` inline.  Wormhole flow control never drops flits,
    so a push into a full buffer or a pop from an empty one is a simulator
    bug, and the engine raises :class:`~repro.errors.SimulationError` on it.
    """

    __slots__ = ("capacity", "_slots")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("buffer capacity must be at least one flit")
        self.capacity = capacity
        self._slots: deque[Flit] = deque()

    def flits(self) -> tuple[Flit, ...]:
        """Snapshot of the buffer contents, oldest first (for diagnostics)."""
        return tuple(self._slots)

    def replace_contents(self, flits) -> None:
        """Replace every buffered flit, oldest first, by the next of
        ``flits``, which holds as many flits as the buffer.

        Used by the engine's fast path to substitute the flits that the
        periods a token skipped would have left here; fresh flit objects
        avoid any aliasing with flits held elsewhere.  The flits are
        replaced slot by slot in the same deque, so a worm segment may keep
        a reference to its input buffer's ``_slots``, and the deque
        allocates nothing (``deque.clear`` would leave it holding a spare
        block).
        """
        slots = self._slots
        replacement = list(flits)
        if len(replacement) != len(slots):
            raise SimulationError("a replacement must hold as many flits as the buffer")
        for index, flit in enumerate(replacement):
            slots[index] = flit

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlitBuffer({len(self._slots)}/{self.capacity})"
