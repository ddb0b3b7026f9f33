"""Workload construction.

A *workload* is a plain list of :class:`MessageSpec` records (who sends what
to whom, when).  Workload builders are pure functions of a seed, so the same
workload can be replayed against different routing algorithms, selection
functions or buffer depths — which is exactly what the ablation benchmarks
do.

Two builders cover the paper's experiments:

* :func:`single_multicast_workload` — one multicast at a time from a random
  source to a random destination set (Figure 2);
* :func:`mixed_traffic_workload` — 90 % unicast / 10 % multicast traffic with
  negative-binomial arrivals at every processor (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError
from ..topology.network import Network
from .arrivals import ArrivalProcess, NegativeBinomialArrivals
from .patterns import uniform_destinations, uniform_source

__all__ = ["MessageSpec", "Workload", "single_multicast_workload", "mixed_traffic_workload"]


@dataclass(frozen=True, slots=True)
class MessageSpec:
    """One message of a workload."""

    source: int
    destinations: tuple[int, ...]
    at_ns: int
    metadata: dict = field(default_factory=dict)

    @property
    def is_multicast(self) -> bool:
        """``True`` when the spec addresses more than one destination."""
        return len(self.destinations) > 1


@dataclass
class Workload:
    """An ordered collection of message specs plus bookkeeping metadata."""

    name: str
    specs: list[MessageSpec] = field(default_factory=list)
    seed: int = 0
    parameters: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def num_multicasts(self) -> int:
        """Number of multicast specs."""
        return sum(1 for spec in self.specs if spec.is_multicast)

    def submit_to(self, simulator) -> list:
        """Submit every spec to a simulator; returns the created messages."""
        messages = []
        for spec in self.specs:
            messages.append(
                simulator.submit_message(
                    spec.source,
                    spec.destinations,
                    at_ns=spec.at_ns,
                    metadata=dict(spec.metadata),
                )
            )
        return messages

    def horizon_ns(self) -> int:
        """Arrival time of the last spec."""
        return max((spec.at_ns for spec in self.specs), default=0)


def single_multicast_workload(
    network: Network,
    num_destinations: int,
    samples: int,
    seed: int = 0,
    spacing_ns: int | None = None,
) -> Workload:
    """Independent single multicasts (Figure 2's workload).

    Each sample is a multicast from a uniformly random source to
    ``num_destinations`` uniformly random destinations.  Samples are spaced
    far enough apart (``spacing_ns``, default 100 µs) that consecutive
    multicasts never interact, so a single simulation run measures
    ``samples`` independent observations.
    """
    if samples < 1:
        raise WorkloadError("need at least one sample")
    rng = np.random.default_rng(seed)
    spacing = 100_000 if spacing_ns is None else spacing_ns
    specs: list[MessageSpec] = []
    for index in range(samples):
        source = uniform_source(network, rng)
        destinations = uniform_destinations(network, source, num_destinations, rng)
        specs.append(
            MessageSpec(
                source=source,
                destinations=tuple(destinations),
                at_ns=index * spacing,
                metadata={"sample": index},
            )
        )
    return Workload(
        name=f"single-multicast-d{num_destinations}",
        specs=specs,
        seed=seed,
        parameters={
            "num_destinations": num_destinations,
            "samples": samples,
            "spacing_ns": spacing,
        },
    )


def mixed_traffic_workload(
    network: Network,
    rate_per_us: float,
    multicast_destinations: int,
    num_messages: int,
    multicast_fraction: float = 0.1,
    seed: int = 0,
    arrival_process: ArrivalProcess | None = None,
) -> Workload:
    """Mixed unicast/multicast traffic (Figure 3's workload).

    Every processor generates messages with negative-binomial inter-arrival
    times at ``rate_per_us`` messages per microsecond.  Each message is a
    unicast with probability ``1 - multicast_fraction`` (the paper uses 90 %)
    and a multicast to ``multicast_destinations`` uniformly random
    destinations otherwise.  Generation stops once ``num_messages`` messages
    have been produced network-wide (the messages are then sorted by arrival
    time).

    Parameters
    ----------
    network:
        Network the workload is for.
    rate_per_us:
        Per-processor average arrival rate (the x-axis of Figure 3).
    multicast_destinations:
        Number of destinations of each multicast (8/16/32/64 in the paper).
    num_messages:
        Total number of messages to generate.
    multicast_fraction:
        Fraction of messages that are multicasts (paper: 0.1).
    seed:
        Workload seed.
    arrival_process:
        Override the arrival process (defaults to the paper's negative
        binomial at ``rate_per_us``).
    """
    if not 0.0 <= multicast_fraction <= 1.0:
        raise WorkloadError("multicast fraction must be within [0, 1]")
    if num_messages < 1:
        raise WorkloadError("need at least one message")
    rng = np.random.default_rng(seed)
    process = arrival_process or NegativeBinomialArrivals(rate_per_us)
    processors = network.processors()
    if len(processors) <= multicast_destinations:
        raise WorkloadError(
            "multicast degree must be smaller than the number of processors"
        )

    # Per-processor arrival clocks; interleave by always advancing the
    # processor whose next arrival is earliest.
    next_arrival: dict[int, int] = {}
    for processor in processors:
        next_arrival[processor] = process.next_interarrival_ns(rng)

    specs: list[MessageSpec] = []
    while len(specs) < num_messages:
        source = min(next_arrival, key=lambda p: (next_arrival[p], p))
        at_ns = next_arrival[source]
        next_arrival[source] = at_ns + process.next_interarrival_ns(rng)
        if rng.random() < multicast_fraction:
            destinations = uniform_destinations(network, source, multicast_destinations, rng)
        else:
            destinations = uniform_destinations(network, source, 1, rng)
        specs.append(
            MessageSpec(
                source=source,
                destinations=tuple(destinations),
                at_ns=at_ns,
                metadata={"index": len(specs)},
            )
        )
    specs.sort(key=lambda spec: spec.at_ns)
    return Workload(
        name=f"mixed-rate{rate_per_us}-d{multicast_destinations}",
        specs=specs,
        seed=seed,
        parameters={
            "rate_per_us": rate_per_us,
            "multicast_destinations": multicast_destinations,
            "num_messages": num_messages,
            "multicast_fraction": multicast_fraction,
            "arrival_process": type(process).__name__,
        },
    )
