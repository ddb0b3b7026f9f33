"""Structured event tracing.

Tracing exists for two purposes: debugging the simulator itself, and the
Figure-1 walk-through example, which replays the paper's §3.2 narrative
(header replicated at node 4 towards nodes 6 and 7, the branch towards 7
advancing while the branch towards 8 is blocked, bubbles propagated on the
free branch, and so on) with actual simulator events.

Tracing is disabled by default because materialising an event object per
flit movement roughly doubles the cost of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced simulator event."""

    time_ns: int
    kind: str
    fields: dict

    def __str__(self) -> str:
        details = ", ".join(f"{key}={value}" for key, value in sorted(self.fields.items()))
        return f"[{self.time_ns:>10} ns] {self.kind:<10} {details}"


@dataclass
class Trace:
    """An append-only list of :class:`TraceEvent` with simple filters."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, time_ns: int, kind: str, **fields) -> None:
        """Append one event."""
        self.events.append(TraceEvent(time_ns=time_ns, kind=kind, fields=fields))

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """Events whose kind is one of ``kinds``."""
        wanted = set(kinds)
        return [event for event in self.events if event.kind in wanted]

    def signature(self) -> list[tuple[int, str, dict]]:
        """Equality-comparable rendering of the whole trace.

        Used by the fast-path trace-equivalence tests: two runs are
        observably identical when their signatures compare equal (same
        events, same timestamps, same payloads, same order).
        """
        return [(event.time_ns, event.kind, event.fields) for event in self.events]

    def render(self, events: Iterable[TraceEvent] | None = None) -> str:
        """Human-readable multi-line rendering."""
        chosen = self.events if events is None else list(events)
        return "\n".join(str(event) for event in chosen)

    def __len__(self) -> int:
        return len(self.events)
