"""Graph-theoretic properties of networks.

These helpers are used by root-selection heuristics (eccentricity / centre),
by the experiment reports (diameter, average distance, degree statistics) and
by the topology validators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from statistics import mean

from .network import Network

__all__ = [
    "switch_eccentricities",
    "switch_diameter",
    "graph_center_switches",
    "average_switch_distance",
    "TopologySummary",
    "summarize",
]


def _switch_bfs_distances(network: Network, source: int, switch_set: set[int]) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in network.neighbors(u):
            if v in switch_set and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def switch_eccentricities(network: Network) -> dict[int, int]:
    """Eccentricity of every switch over the switch-only subgraph.

    The eccentricity of a switch is its maximum distance to any other switch.
    Raises no error for disconnected switch graphs; unreachable switches are
    simply ignored (callers that need connectivity should call
    :meth:`Network.require_connected` first).
    """
    switch_set = set(network.switches())
    ecc: dict[int, int] = {}
    # Sorted so the returned dict's insertion order (a public, observable
    # property) never depends on the salted set-hash order.
    for s in sorted(switch_set):
        dist = _switch_bfs_distances(network, s, switch_set)
        ecc[s] = max(dist.values()) if dist else 0
    return ecc


def switch_diameter(network: Network) -> int:
    """Diameter of the switch-only subgraph."""
    ecc = switch_eccentricities(network)
    return max(ecc.values()) if ecc else 0


def graph_center_switches(network: Network) -> list[int]:
    """Switches with minimum eccentricity (the graph centre), sorted by id."""
    ecc = switch_eccentricities(network)
    if not ecc:
        return []
    minimum = min(ecc.values())
    return sorted(s for s, e in ecc.items() if e == minimum)


def average_switch_distance(network: Network) -> float:
    """Mean pairwise distance between distinct switches."""
    switch_set = set(network.switches())
    if len(switch_set) < 2:
        return 0.0
    total = 0
    count = 0
    for s in sorted(switch_set):
        dist = _switch_bfs_distances(network, s, switch_set)
        for t, d in dist.items():
            if t != s:
                total += d
                count += 1
    return total / count if count else 0.0


@dataclass(frozen=True, slots=True)
class TopologySummary:
    """Summary statistics of a network, suitable for experiment reports."""

    name: str
    num_switches: int
    num_processors: int
    num_bidirectional_links: int
    switch_diameter: int
    average_switch_distance: float
    min_switch_degree: int
    max_switch_degree: int
    mean_switch_degree: float

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for tabular reports."""
        return {
            "name": self.name,
            "switches": self.num_switches,
            "processors": self.num_processors,
            "links": self.num_bidirectional_links,
            "diameter": self.switch_diameter,
            "avg_distance": round(self.average_switch_distance, 3),
            "degree_min": self.min_switch_degree,
            "degree_max": self.max_switch_degree,
            "degree_mean": round(self.mean_switch_degree, 3),
        }


def summarize(network: Network) -> TopologySummary:
    """Compute a :class:`TopologySummary` for ``network``."""
    switches = network.switches()
    degrees = [network.degree(s) for s in switches]
    return TopologySummary(
        name=network.name,
        num_switches=network.num_switches,
        num_processors=network.num_processors,
        num_bidirectional_links=network.num_channels // 2,
        switch_diameter=switch_diameter(network),
        average_switch_distance=average_switch_distance(network),
        min_switch_degree=min(degrees) if degrees else 0,
        max_switch_degree=max(degrees) if degrees else 0,
        mean_switch_degree=mean(degrees) if degrees else 0.0,
    )
