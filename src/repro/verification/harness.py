"""Simulation-level verification harnesses.

The structural checks (:mod:`repro.verification.cdg`,
:mod:`repro.verification.reachability`) argue about the routing *function*;
the harnesses here exercise the full run-time protocol — OCRQs, atomic
multi-channel acquisition, asynchronous replication — by running stress
workloads on the flit-level simulator and asserting that every message is
delivered.  They are used by the integration tests and by the
``deadlock_verification`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.interface import RoutingAlgorithm
from ..errors import DeadlockError
from ..simulator.config import SimulationConfig
from ..simulator.engine import WormholeSimulator
from ..topology.network import Network
from ..traffic.workload import Workload, mixed_traffic_workload

__all__ = ["StressResult", "run_workload", "stress_test_deadlock_freedom"]


@dataclass
class StressResult:
    """Outcome of one verification run."""

    messages_submitted: int
    messages_completed: int
    deadlocked: bool
    deadlock_description: str = ""
    end_time_ns: int = 0
    mean_latency_us: float = float("nan")
    details: dict = field(default_factory=dict)

    @property
    def all_delivered(self) -> bool:
        """``True`` when every submitted message completed."""
        return not self.deadlocked and self.messages_completed == self.messages_submitted


def run_workload(
    network: Network,
    routing: RoutingAlgorithm,
    workload: Workload,
    config: SimulationConfig | None = None,
) -> StressResult:
    """Run ``workload`` on a fresh simulator and report delivery/deadlock status.

    Unlike :meth:`WormholeSimulator.run`, a detected deadlock is *captured*
    rather than raised, so callers (tests, examples) can assert on it either
    way.
    """
    config = config or SimulationConfig()
    simulator = WormholeSimulator(network, routing, config)
    workload.submit_to(simulator)
    deadlocked = False
    description = ""
    try:
        simulator.run()
    except DeadlockError as error:
        deadlocked = True
        description = str(error)
    stats = simulator.stats
    return StressResult(
        messages_submitted=stats.messages_submitted,
        messages_completed=stats.messages_completed,
        deadlocked=deadlocked,
        deadlock_description=description,
        end_time_ns=simulator.now,
        mean_latency_us=stats.mean_latency_us(),
        details={"workload": workload.name, "routing": routing.name},
    )


def stress_test_deadlock_freedom(
    network: Network,
    routing: RoutingAlgorithm,
    rounds: int = 3,
    messages_per_round: int = 60,
    rate_per_us: float = 0.05,
    multicast_destinations: int | None = None,
    message_length_flits: int = 16,
    seed: int = 0,
) -> list[StressResult]:
    """Run several heavy mixed-traffic rounds and report delivery status.

    The load is intentionally pushed towards saturation (high rate, several
    rounds with different seeds) because deadlocks in wormhole networks only
    appear under contention.  Short messages are used so that many worms are
    simultaneously in flight relative to the run length.
    """
    if multicast_destinations is None:
        multicast_destinations = max(2, min(8, network.num_processors - 1))
    config = SimulationConfig(message_length_flits=message_length_flits)
    results = []
    rng = np.random.default_rng(seed)
    for round_index in range(rounds):
        workload = mixed_traffic_workload(
            network,
            rate_per_us=rate_per_us,
            multicast_destinations=multicast_destinations,
            num_messages=messages_per_round,
            multicast_fraction=0.1 if routing.supports_multicast else 0.0,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        results.append(run_workload(network, routing, workload, config))
    return results
