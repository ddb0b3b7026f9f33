"""Simulation configuration.

The latency parameters default to the values used in the paper's experiments
(§4): a communication startup latency of 10 µs, a router setup latency of
40 ns per message header per router, a channel propagation latency of 10 ns
per flit, 128-flit messages, and single-flit input buffers.

All times are integer nanoseconds; the simulator never uses floating point
for time so that event ordering is exact and runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..errors import ConfigurationError

__all__ = ["SimulationConfig", "PAPER_CONFIG"]


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Parameters of one flit-level wormhole simulation.

    Attributes
    ----------
    startup_latency_ns:
        Software/communication startup latency charged once per message at
        the source before the first flit can be injected (paper: 10 µs).
    router_setup_ns:
        Latency between the header flit arriving at a switch and the routing
        decision / output-channel requests being made (paper: 40 ns).
    channel_latency_ns:
        Propagation latency of one flit across a channel, the same on every
        channel; also the channel cycle time, i.e. a channel forwards at most
        one flit per ``channel_latency_ns`` (paper: 10 ns).  It is the
        period a worm token advances by.
    message_length_flits:
        Number of flits per message including header and tail (paper: 128).
    input_buffer_depth:
        Capacity, in flits, of the input buffer at the receiving end of every
        channel (paper: single-flit buffers; SPAM's key property is that this
        may stay 1 regardless of message length).
    output_buffer_depth:
        Capacity, in flits, of the output buffer at the transmitting end of
        every channel.
    max_hops:
        Safety bound on the number of switches a single worm may visit;
        exceeding it raises :class:`~repro.errors.LivelockError`.
    deadlock_detection:
        When ``True`` (default) the simulator diagnoses a deadlock (and
        raises :class:`~repro.errors.DeadlockError`) if its event queue
        drains while messages are still in flight.
    collect_channel_stats:
        Record per-channel busy time and flit counts (slightly slower; off by
        default for large sweeps).
    trace:
        Record a structured event trace (for debugging and for the Figure 1
        walk-through example).  Expensive; never enable for sweeps.
    fast_path:
        Enable the worm-token fast path (default on).  Once a worm's header
        has reached every destination, the worm's transfers due at one
        period fold into one lane entry that advances one period per pop
        with no per-flit work, verified against one period of the reference
        execution first; timestamps, traces and statistics stay
        bit-identical.  Turn it off to force the reference per-flit
        execution (useful when stepping through the engine, and exercised
        by the trace-equivalence tests).  ``docs/fast_path.md`` specifies
        the contract; the fast path has no other switch.
    """

    startup_latency_ns: int = 10_000
    router_setup_ns: int = 40
    channel_latency_ns: int = 10
    message_length_flits: int = 128
    input_buffer_depth: int = 1
    output_buffer_depth: int = 1
    max_hops: int = 4096
    deadlock_detection: bool = True
    collect_channel_stats: bool = False
    trace: bool = False
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.startup_latency_ns < 0:
            raise ConfigurationError("startup latency cannot be negative")
        if self.router_setup_ns < 0:
            raise ConfigurationError("router setup latency cannot be negative")
        if self.channel_latency_ns <= 0:
            raise ConfigurationError("channel latency must be positive")
        if self.message_length_flits < 2:
            raise ConfigurationError("messages need at least a header and a tail flit")
        if self.input_buffer_depth < 1 or self.output_buffer_depth < 1:
            raise ConfigurationError("buffer depths must be at least one flit")
        if self.max_hops < 2:
            raise ConfigurationError("max_hops must be at least 2")

    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **kwargs)


#: The exact configuration used in the paper's experiments.
PAPER_CONFIG = SimulationConfig()
