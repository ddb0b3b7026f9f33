"""repro — a reproduction of "Tree-Based Multicasting in Wormhole-Routed
Irregular Topologies" (Libeskind-Hadas, Mazzoni, Rajagopalan; IPPS 1998).

The package implements the paper's contribution — SPAM, the Single Phase
Adaptive Multicast routing algorithm — together with every substrate its
evaluation depends on: the switch-based irregular network model, the
up*/down* spanning-tree partition, a flit-level event-driven wormhole
simulator with output-channel request queues and asynchronous replication,
traffic generators, baselines (classic up*/down* unicast and unicast-based
software multicast), verification utilities for the deadlock- and
livelock-freedom theorems, and experiment drivers regenerating every figure
of the paper's evaluation.

Quick start
-----------
>>> from repro import SpamRouting, WormholeSimulator, lattice_irregular_network
>>> network = lattice_irregular_network(64, seed=1)
>>> spam = SpamRouting.build(network)
>>> sim = WormholeSimulator(network, spam)
>>> message = sim.submit_broadcast(network.processors()[0])
>>> _ = sim.run()
>>> message.is_complete
True

Sub-packages
------------
``repro.topology``
    Network model and topology generators (irregular lattice, mesh,
    hypercube, the paper's Figure 1).
``repro.spanning``
    Spanning trees, up/down channel labelling, ancestor relations, root
    selection.
``repro.core``
    SPAM itself: routing function, selection functions, multicast plans,
    destination partitioning.
``repro.routing``
    Baselines: classic up*/down* unicast, unicast-based software multicast,
    naive minimal routing (deadlock demonstration).
``repro.simulator``
    The flit-level wormhole simulator.
``repro.traffic``
    Arrival processes, destination patterns, workload builders.
``repro.analysis``
    Statistics, sweep containers, software-multicast bounds, report tables.
``repro.verification``
    Channel-dependency-graph and reachability checks, stress harnesses.
``repro.sweeps``
    Sweep orchestration: hashable point specs, a content-addressed result
    store and a resumable parallel scheduler shared by every experiment.
``repro.experiments``
    Drivers regenerating Figures 2 and 3, the software-multicast comparison
    and the ablation studies (all routed through ``repro.sweeps``).
"""

from .core.multicast import MulticastPlan, build_multicast_plan
from .core.selection import DistanceToTargetSelection, make_selection
from .core.spam import SpamRouting
from .errors import (
    ConfigurationError,
    DeadlockError,
    LivelockError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from .routing.unicast_multicast import UnicastMulticastScheduler, minimum_phases
from .routing.updown import UpDownRouting
from .simulator.config import PAPER_CONFIG, SimulationConfig
from .simulator.engine import WormholeSimulator
from .simulator.message import Message
from .simulator.stats import SimulationStats
from .spanning.tree import bfs_spanning_tree
from .sweeps import ResultStore, SweepPointResult, SweepPointSpec, run_sweep
from .topology.examples import figure1_network
from .topology.irregular import lattice_irregular_network, random_irregular_network
from .topology.network import Network
from .topology.regular import hypercube_network, mesh_network
from .traffic.workload import mixed_traffic_workload, single_multicast_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Core algorithm
    "SpamRouting",
    "MulticastPlan",
    "build_multicast_plan",
    "DistanceToTargetSelection",
    "make_selection",
    # Topology
    "Network",
    "lattice_irregular_network",
    "random_irregular_network",
    "mesh_network",
    "hypercube_network",
    "figure1_network",
    "bfs_spanning_tree",
    # Simulation
    "WormholeSimulator",
    "SimulationConfig",
    "PAPER_CONFIG",
    "Message",
    "SimulationStats",
    # Baselines
    "UpDownRouting",
    "UnicastMulticastScheduler",
    "minimum_phases",
    # Traffic
    "single_multicast_workload",
    "mixed_traffic_workload",
    # Sweep orchestration
    "SweepPointSpec",
    "SweepPointResult",
    "run_sweep",
    "ResultStore",
    # Errors
    "ReproError",
    "TopologyError",
    "RoutingError",
    "SimulationError",
    "DeadlockError",
    "LivelockError",
    "ConfigurationError",
    "WorkloadError",
]
