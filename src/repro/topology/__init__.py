"""Network topology substrate: the switch-based direct-network model,
channel vocabulary, generators for irregular and regular topologies, and
validation / property helpers.

Public entry points
-------------------
* :class:`~repro.topology.network.Network` — the graph model.
* :class:`~repro.topology.builder.NetworkBuilder` — hand construction.
* :func:`~repro.topology.irregular.lattice_irregular_network` — the paper's
  random-lattice irregular networks.
* :func:`~repro.topology.regular.mesh_network`,
  :func:`~repro.topology.regular.hypercube_network` and
  :func:`~repro.topology.regular.ring_network` — regular topologies.
* :func:`~repro.topology.examples.figure1_network` — the paper's Figure 1.
"""

from .builder import NetworkBuilder
from .channels import (
    DOWN_CROSS,
    DOWN_TREE,
    UP_CROSS,
    UP_TREE,
    Channel,
    ChannelKind,
    ChannelLabel,
    LinkRole,
    NodeKind,
    Orientation,
)
from .examples import Figure1Fixture, figure1_network, line_network, two_switch_network
from .irregular import (
    IrregularLatticeGenerator,
    lattice_irregular_network,
    random_irregular_network,
)
from .network import Network
from .properties import (
    TopologySummary,
    average_switch_distance,
    graph_center_switches,
    summarize,
    switch_diameter,
    switch_eccentricities,
)
from .regular import hypercube_network, mesh_network, ring_network
from .serialization import load_network, network_from_dict, network_to_dict, save_network
from .validate import ValidationReport, validate_network

__all__ = [
    "Channel",
    "ChannelKind",
    "ChannelLabel",
    "LinkRole",
    "NodeKind",
    "Orientation",
    "UP_TREE",
    "UP_CROSS",
    "DOWN_TREE",
    "DOWN_CROSS",
    "Network",
    "NetworkBuilder",
    "Figure1Fixture",
    "figure1_network",
    "two_switch_network",
    "line_network",
    "IrregularLatticeGenerator",
    "lattice_irregular_network",
    "random_irregular_network",
    "mesh_network",
    "hypercube_network",
    "ring_network",
    "TopologySummary",
    "summarize",
    "switch_diameter",
    "switch_eccentricities",
    "graph_center_switches",
    "average_switch_distance",
    "ValidationReport",
    "validate_network",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]
