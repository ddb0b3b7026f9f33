"""The run fingerprint: everything observable about a simulation, raw.

Every bit-identity contract in this repository — fast path vs reference,
telemetry on vs off, and the checked-in golden corpus
(``tests/golden/engine.json``) — compares two runs through
:func:`simulator_fingerprint`.  Nothing is canonicalized: message records
and trace events keep the order the engine produced them in, so two runs
are equivalent only if they are event-for-event identical, including the
interleaving of different messages' events within one timestamp.
"""

from __future__ import annotations

from typing import Any, Mapping

from .engine import WormholeSimulator
from .stats import SimulationStats
from .trace import Trace

__all__ = ["observable_fingerprint", "simulator_fingerprint"]


def observable_fingerprint(
    stats: SimulationStats,
    trace: Trace | None,
    messages: Mapping[int, Any],
    now: int,
) -> dict:
    """Everything observable about a finished (or paused) run.

    Timestamps, message records in completion order, the trace in emission
    order, delivery times, hop/bubble/flit counters, per-channel records
    and the final clock are all compared raw.  The only normalisation is
    NaN -> ``None`` in the summary (a mean over zero messages), so the
    fingerprint compares equal to itself under ``==``.
    """
    summary = {
        key: (None if value != value else value)  # normalise NaN for ==
        for key, value in stats.summary().items()
    }
    records = [
        (
            record.mid,
            record.kind,
            record.source,
            record.num_destinations,
            record.length_flits,
            record.created_ns,
            record.startup_began_ns,
            record.completed_ns,
            record.latency_from_creation_ns,
            record.latency_from_startup_ns,
            record.hops,
            dict(record.metadata),
        )
        for record in stats.records
    ]
    return {
        "summary": summary,
        "records": records,
        "trace": None if trace is None else trace.signature(),
        "deliveries": {
            mid: dict(message.delivered_ns) for mid, message in messages.items()
        },
        "completions": {mid: message.completed_ns for mid, message in messages.items()},
        "hops": {mid: message.hops for mid, message in messages.items()},
        "channels": [
            (record.cid, record.data_flits, record.bubble_flits, record.busy_ns)
            for record in stats.channel_records
        ],
        "now": now,
    }


def simulator_fingerprint(
    simulator: WormholeSimulator, stats: SimulationStats | None = None
) -> dict:
    """:func:`observable_fingerprint` of a :class:`WormholeSimulator` run."""
    return observable_fingerprint(
        stats=simulator.stats if stats is None else stats,
        trace=simulator.trace,
        messages=simulator.messages,
        now=simulator.now,
    )
