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
        Propagation latency of one flit across one channel; also the channel
        cycle time, i.e. a channel forwards at most one flit per
        ``channel_latency_ns`` (paper: 10 ns).
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
        Enable the steady-state event-coalescing fast path (default on).
        The fast path batch-advances body flits once every worm segment in a
        streaming phase is ``ACTIVE`` and produces bit-identical timestamps,
        traces and statistics; turn it off to force the reference per-flit
        execution (useful when stepping through the engine, and exercised by
        the trace-equivalence tests).  It verifies and replays one channel
        period at a time; ``docs/fast_path.md`` specifies the coalescing
        contract.  The patterns it coalesces have no switches of their own.
    channel_latency_factors:
        Per-channel latency multipliers ``((cid, factor), ...)``: channel
        ``cid`` forwards one flit per ``factor × channel_latency_ns``
        instead of the base period, modelling a degraded or long link in
        an irregular topology.  Factors are positive integers so event
        timestamps stay on the base grid.  A slow channel throttles its
        whole worm to rate ``1/factor``; the fast path probes one channel
        period at a time, so that worm's streaming phases run per flit
        (results are identical either way).
    telemetry:
        Record wall-clock telemetry (:mod:`repro.obs`) during runs: one
        span per fast-path probe with its exit tier, and the ``coalesce_*``
        counters re-published as gauges.
        Telemetry is observability-only — every observable result stays
        bit-identical with it on or off (the observables firewall,
        ``docs/observability.md``) — but the per-probe instrumentation
        costs wall-clock, so it is off by default.  When off the engine
        holds the no-op recorder and pays nothing per event.
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
    channel_latency_factors: tuple[tuple[int, int], ...] = ()
    telemetry: bool = False

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
        seen_cids: set[int] = set()
        for entry in self.channel_latency_factors:
            try:
                cid, factor = entry
            except (TypeError, ValueError):
                raise ConfigurationError(
                    "channel_latency_factors entries must be (cid, factor) pairs"
                ) from None
            if cid != int(cid) or cid < 0:
                raise ConfigurationError(
                    f"channel id {cid!r} must be a non-negative integer"
                )
            if factor != int(factor) or factor < 1:
                # Integral factors keep every event timestamp on the base
                # channel-period grid (the invariant the fast path's modular
                # arithmetic relies on).
                raise ConfigurationError(
                    f"latency factor for channel {cid} must be an integer >= 1"
                )
            if cid in seen_cids:
                raise ConfigurationError(
                    f"channel id {cid} appears more than once in channel_latency_factors"
                )
            seen_cids.add(cid)

    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **kwargs)

    @property
    def serialization_latency_ns(self) -> int:
        """Time to push a whole message across one channel back to back."""
        return self.message_length_flits * self.channel_latency_ns


#: The exact configuration used in the paper's experiments.
PAPER_CONFIG = SimulationConfig()
