"""Simulation statistics collection.

The statistics object records one :class:`MessageRecord` per message and a
small number of network-level counters.  Aggregation into means and
confidence intervals lives in :mod:`repro.analysis.stats`; this module only
gathers raw observations so that the simulator's hot path stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from .message import Message

__all__ = ["MessageRecord", "ChannelRecord", "SimulationStats"]


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """The measurement-relevant facts about one completed message."""

    mid: int
    kind: str
    source: int
    num_destinations: int
    length_flits: int
    created_ns: int
    startup_began_ns: int
    completed_ns: int
    latency_from_creation_ns: int
    latency_from_startup_ns: int
    hops: int
    metadata: dict = field(default_factory=dict)

    @property
    def latency_from_creation_us(self) -> float:
        """Creation-to-completion latency in microseconds."""
        return self.latency_from_creation_ns / 1000.0

    @property
    def latency_from_startup_us(self) -> float:
        """Startup-to-completion latency in microseconds (paper's metric)."""
        return self.latency_from_startup_ns / 1000.0


@dataclass(frozen=True, slots=True)
class ChannelRecord:
    """Per-channel utilisation counters (channel-statistics mode only)."""

    cid: int
    src: int
    dst: int
    data_flits: int
    bubble_flits: int
    busy_ns: int


class SimulationStats:
    """Accumulates message and channel observations for one simulation run."""

    def __init__(self) -> None:
        self.records: list[MessageRecord] = []
        self.channel_records: list[ChannelRecord] = []
        self.messages_submitted = 0
        self.messages_completed = 0
        self.flit_hops = 0
        self.bubbles_created = 0
        self.end_time_ns = 0

    # ------------------------------------------------------------------
    def record_message(self, message: Message) -> MessageRecord:
        """Convert a completed message into a :class:`MessageRecord`."""
        if not message.is_complete:
            raise ValueError(f"message {message.mid} is not complete")
        # "Unset" is None, never 0: a message created at t=0 legitimately
        # starts up and completes at timestamp 0, and a falsy-or fallback
        # would silently rewrite those zeros.
        startup_began_ns = message.startup_began_ns
        completed_ns = message.completed_ns
        latency_from_creation_ns = message.latency_from_creation_ns
        latency_from_startup_ns = message.latency_from_startup_ns
        record = MessageRecord(
            mid=message.mid,
            kind=message.kind.value,
            source=message.source,
            num_destinations=message.num_destinations,
            length_flits=message.length_flits,
            created_ns=message.created_ns,
            startup_began_ns=(
                message.created_ns if startup_began_ns is None else startup_began_ns
            ),
            completed_ns=0 if completed_ns is None else completed_ns,
            latency_from_creation_ns=(
                0 if latency_from_creation_ns is None else latency_from_creation_ns
            ),
            latency_from_startup_ns=(
                0 if latency_from_startup_ns is None else latency_from_startup_ns
            ),
            hops=message.hops,
            metadata=dict(message.metadata),
        )
        self.records.append(record)
        self.messages_completed += 1
        return record

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def latencies_us(self, kind: str | None = None, from_creation: bool = True) -> list[float]:
        """Latencies (µs) of all completed messages, optionally filtered by kind.

        Parameters
        ----------
        kind:
            ``"unicast"``, ``"multicast"`` or ``None`` for all messages.
        from_creation:
            Measure from message creation (includes source queueing) when
            ``True``, from startup when ``False``.
        """
        result = []
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            value = (
                record.latency_from_creation_us if from_creation else record.latency_from_startup_us
            )
            result.append(value)
        return result

    def mean_latency_us(self, kind: str | None = None, from_creation: bool = True) -> float:
        """Mean latency in microseconds (``nan`` if no matching messages)."""
        values = self.latencies_us(kind, from_creation)
        return mean(values) if values else float("nan")

    def summary(self) -> dict[str, float | int]:
        """Compact dictionary summary used by experiment reports."""
        return {
            "messages_submitted": self.messages_submitted,
            "messages_completed": self.messages_completed,
            "mean_latency_us": self.mean_latency_us(),
            "mean_unicast_latency_us": self.mean_latency_us("unicast"),
            "mean_multicast_latency_us": self.mean_latency_us("multicast"),
            "flit_hops": self.flit_hops,
            "bubbles_created": self.bubbles_created,
            "end_time_ns": self.end_time_ns,
        }
