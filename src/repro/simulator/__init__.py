"""Flit-level wormhole simulation substrate.

The simulator reproduces the machinery of the paper's MARS simulator at the
same level of detail: per-flit channel propagation, per-header router setup,
per-message startup, single-flit (configurable) input buffers, output channel
request queues with atomic multi-channel acquisition, and asynchronous flit
replication with bubble flits.

Public entry points
-------------------
* :class:`~repro.simulator.engine.WormholeSimulator` — the simulator.
* :class:`~repro.simulator.config.SimulationConfig` /
  :data:`~repro.simulator.config.PAPER_CONFIG` — latency and sizing parameters.
* :class:`~repro.simulator.message.Message` — the unit of traffic.
* :class:`~repro.simulator.stats.SimulationStats` — collected observations.
"""

from .buffers import FlitBuffer
from .config import PAPER_CONFIG, SimulationConfig
from .deadlock import DeadlockReport, diagnose
from .engine import WormholeSimulator
from .events import EventQueue
from .flit import Flit, FlitKind
from .links import LinkState
from .message import Message, MessageKind
from .ocrq import OutputChannelRequestQueue
from .router import SegmentState, SourceInterface, WormSegment
from .stats import ChannelRecord, MessageRecord, SimulationStats
from .trace import Trace, TraceEvent

__all__ = [
    "WormholeSimulator",
    "SimulationConfig",
    "PAPER_CONFIG",
    "Message",
    "MessageKind",
    "SimulationStats",
    "MessageRecord",
    "ChannelRecord",
    "Flit",
    "FlitKind",
    "FlitBuffer",
    "LinkState",
    "OutputChannelRequestQueue",
    "WormSegment",
    "SourceInterface",
    "SegmentState",
    "EventQueue",
    "DeadlockReport",
    "diagnose",
    "Trace",
    "TraceEvent",
]
