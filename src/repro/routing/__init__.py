"""Routing algorithms: the abstract interface consumed by the simulator,
the classic up*/down* unicast baseline, the naive minimal baseline (the
deadlock demonstration) and the software (unicast-based) multicast
baseline.

SPAM itself lives in :mod:`repro.core`; this package hosts everything the
paper compares against or builds upon.
"""

from ..core.interface import MessageLike, RoutingAlgorithm
from .naive import NaiveMinimalRouting
from .unicast_multicast import (
    ForwardingStep,
    UnicastMulticastScheduler,
    binomial_schedule,
    minimum_phases,
)
from .updown import UpDownRouting

__all__ = [
    "RoutingAlgorithm",
    "MessageLike",
    "UpDownRouting",
    "NaiveMinimalRouting",
    "UnicastMulticastScheduler",
    "ForwardingStep",
    "binomial_schedule",
    "minimum_phases",
]
