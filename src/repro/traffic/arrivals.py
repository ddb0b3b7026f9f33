"""Message arrival processes.

The paper's mixed-traffic experiments (Figure 3) draw message arrivals from
"a negative binomial distribution with varying average arrival rates".  This
module implements that process along with Poisson and deterministic
processes (useful for tests and for sensitivity studies), all parameterised
by the *average arrival rate per processor* in messages per microsecond —
the quantity on Figure 3's x-axis.

All processes generate integer nanosecond inter-arrival times from an
explicit :class:`numpy.random.Generator` so that workloads are reproducible.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "NegativeBinomialArrivals",
    "DeterministicArrivals",
    "make_arrival_process",
]

_NS_PER_US = 1000


class ArrivalProcess(abc.ABC):
    """Generates successive message inter-arrival times for one processor."""

    #: Mean inter-arrival time in nanoseconds.
    mean_interarrival_ns: float

    @abc.abstractmethod
    def next_interarrival_ns(self, rng: np.random.Generator) -> int:
        """Draw the next inter-arrival time (nanoseconds, at least 1)."""

def _mean_from_rate(rate_per_us: float) -> float:
    if rate_per_us <= 0:
        raise ConfigurationError("arrival rate must be positive")
    return _NS_PER_US / rate_per_us


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Exponential (memoryless) inter-arrival times."""

    rate_per_us: float

    def __post_init__(self) -> None:
        self.mean_interarrival_ns = _mean_from_rate(self.rate_per_us)

    def next_interarrival_ns(self, rng: np.random.Generator) -> int:
        return max(1, int(round(rng.exponential(self.mean_interarrival_ns))))


@dataclass
class NegativeBinomialArrivals(ArrivalProcess):
    """Negative-binomial inter-arrival times (the paper's traffic model).

    Inter-arrival times are drawn as ``quantum_ns`` multiples of a negative
    binomial variate with ``r`` successes and success probability chosen so
    that the mean matches the requested arrival rate.  ``r = 1`` gives the
    geometric distribution (the discrete analogue of Poisson traffic); larger
    ``r`` gives smoother (less bursty) traffic.

    Parameters
    ----------
    rate_per_us:
        Average arrival rate per processor, messages per microsecond.
    r:
        Number-of-successes parameter of the negative binomial.
    quantum_ns:
        Time quantum of the discrete distribution; the default of 10 ns is
        one channel cycle.
    """

    rate_per_us: float
    r: int = 2
    quantum_ns: int = 10

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigurationError("negative binomial parameter r must be >= 1")
        if self.quantum_ns < 1:
            raise ConfigurationError("quantum must be at least 1 ns")
        self.mean_interarrival_ns = _mean_from_rate(self.rate_per_us)
        mean_quanta = self.mean_interarrival_ns / self.quantum_ns
        if mean_quanta <= 0:
            raise ConfigurationError("arrival rate too high for the chosen quantum")
        # Mean of numpy's negative_binomial(n=r, p) is r * (1 - p) / p.
        self._p = self.r / (self.r + mean_quanta)

    def next_interarrival_ns(self, rng: np.random.Generator) -> int:
        quanta = int(rng.negative_binomial(self.r, self._p))
        return max(1, quanta * self.quantum_ns)


@dataclass
class DeterministicArrivals(ArrivalProcess):
    """Fixed inter-arrival times (useful for tests and saturation probing)."""

    rate_per_us: float

    def __post_init__(self) -> None:
        self.mean_interarrival_ns = _mean_from_rate(self.rate_per_us)

    def next_interarrival_ns(self, rng: np.random.Generator) -> int:
        return max(1, int(round(self.mean_interarrival_ns)))


def make_arrival_process(name: str, rate_per_us: float, **kwargs) -> ArrivalProcess:
    """Create an arrival process by name (``"poisson"``, ``"negative-binomial"``
    or ``"deterministic"``)."""
    if name == "poisson":
        return PoissonArrivals(rate_per_us)
    if name in ("negative-binomial", "nbinom"):
        return NegativeBinomialArrivals(rate_per_us, **kwargs)
    if name == "deterministic":
        return DeterministicArrivals(rate_per_us)
    raise ConfigurationError(f"unknown arrival process {name!r}")
