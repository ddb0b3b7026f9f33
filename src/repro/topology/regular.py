"""Regular topology generators (meshes, hypercubes, rings).

The paper's algorithm applies to *any* direct network; its future-work
section (§5) observes that "for regular topologies such as meshes and
n-cubes, judicious selection of spanning trees for the underlying routing
algorithm may have significant effects on performance".  These generators
make it possible to run SPAM (and the ablation benchmarks on spanning-tree
root selection) on regular topologies as well as on irregular ones.

All generators follow the switch-based model of the paper: each network
position is a switch, and one processor is attached to every switch.
"""

from __future__ import annotations

from itertools import product

from ..errors import ConfigurationError
from .network import Network

__all__ = ["mesh_network", "hypercube_network", "ring_network"]


def _attach_processors(network: Network, per_switch: int = 1) -> None:
    for switch in list(network.switches()):
        for p in range(per_switch):
            suffix = "" if per_switch == 1 else f"_{p}"
            network.add_processor(switch, f"p{switch}{suffix}")


def mesh_network(rows: int, cols: int, processors_per_switch: int = 1) -> Network:
    """A ``rows x cols`` 2-D mesh of switches, one processor per switch.

    Switch ``(r, c)`` is labelled ``"s{r}_{c}"`` and has node id
    ``r * cols + c``.
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("mesh dimensions must be positive")
    ports = 4 + processors_per_switch
    network = Network(ports_per_switch=ports, name=f"mesh-{rows}x{cols}")
    ids: dict[tuple[int, int], int] = {}
    for r, c in product(range(rows), range(cols)):
        ids[(r, c)] = network.add_switch(f"s{r}_{c}")
    for r, c in product(range(rows), range(cols)):
        if c + 1 < cols:
            network.connect(ids[(r, c)], ids[(r, c + 1)])
        if r + 1 < rows:
            network.connect(ids[(r, c)], ids[(r + 1, c)])
    _attach_processors(network, processors_per_switch)
    return network


def hypercube_network(dimension: int, processors_per_switch: int = 1) -> Network:
    """An ``n``-dimensional binary hypercube of switches."""
    if dimension < 1:
        raise ConfigurationError("hypercube dimension must be positive")
    if dimension > 12:
        raise ConfigurationError("hypercube dimension above 12 is unreasonably large")
    ports = dimension + processors_per_switch
    network = Network(ports_per_switch=ports, name=f"hypercube-{dimension}")
    count = 1 << dimension
    for i in range(count):
        network.add_switch(f"s{i:0{dimension}b}")
    for i in range(count):
        for bit in range(dimension):
            j = i ^ (1 << bit)
            if j > i:
                network.connect(i, j)
    _attach_processors(network, processors_per_switch)
    return network


def ring_network(size: int, processors_per_switch: int = 1) -> Network:
    """A unidirectional-cycle-free bidirectional ring of ``size`` switches."""
    if size < 3:
        raise ConfigurationError("ring needs at least three switches")
    network = Network(ports_per_switch=2 + processors_per_switch, name=f"ring-{size}")
    for i in range(size):
        network.add_switch(f"s{i}")
    for i in range(size):
        a, b = i, (i + 1) % size
        if not network.has_channel(a, b):
            network.connect(a, b)
    _attach_processors(network, processors_per_switch)
    return network
