"""Traffic generation: arrival processes, destination patterns and workloads.

The builders here reproduce the paper's two experimental workloads — single
multicasts with a varying number of destinations (Figure 2) and mixed 90 %
unicast / 10 % multicast traffic with negative-binomial arrivals (Figure 3) —
and add the broadcast pattern used by the extension studies.
"""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    NegativeBinomialArrivals,
    PoissonArrivals,
    make_arrival_process,
)
from .patterns import (
    broadcast_destinations,
    uniform_destinations,
    uniform_source,
)
from .workload import MessageSpec, Workload, mixed_traffic_workload, single_multicast_workload

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "NegativeBinomialArrivals",
    "DeterministicArrivals",
    "make_arrival_process",
    "uniform_source",
    "uniform_destinations",
    "broadcast_destinations",
    "MessageSpec",
    "Workload",
    "single_multicast_workload",
    "mixed_traffic_workload",
]
