"""Destination-set selection patterns.

The paper's experiments pick multicast destinations uniformly at random
among the processors.  Sources are likewise drawn uniformly among
processors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import WorkloadError
from ..topology.network import Network

__all__ = [
    "uniform_destinations",
    "broadcast_destinations",
    "uniform_source",
]


def uniform_source(network: Network, rng: np.random.Generator) -> int:
    """A uniformly random source processor."""
    processors = network.processors()
    if not processors:
        raise WorkloadError("network has no processors")
    return int(processors[int(rng.integers(0, len(processors)))])


def uniform_destinations(
    network: Network,
    source: int,
    count: int,
    rng: np.random.Generator,
) -> list[int]:
    """``count`` distinct processors chosen uniformly at random (excluding the source)."""
    candidates = [p for p in network.processors() if p != source]
    if count < 1:
        raise WorkloadError("destination count must be positive")
    if count > len(candidates):
        raise WorkloadError(
            f"cannot choose {count} destinations from {len(candidates)} candidate processors"
        )
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return sorted(int(candidates[i]) for i in chosen)


def broadcast_destinations(network: Network, source: int) -> list[int]:
    """Every processor except the source."""
    return [p for p in network.processors() if p != source]
