"""Selection functions for SPAM's partially adaptive routing.

The routing function (:mod:`repro.core.unicast`) may offer several allowable
output channels at a router; a *selection function* imposes an order of
preference among them.  The paper's simulations use "a simple selection
policy ... which prioritizes channels according to the distance from the
endpoint of the channel to the LCA node"; that policy is implemented by
:class:`DistanceToTargetSelection` and is the default everywhere in this
repository.  Alternative selection functions are provided for the
selection-function ablation benchmark.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import SelectionError
from ..topology.network import Network
from .unicast import RoutingOption

__all__ = [
    "SelectionFunction",
    "DistanceToTargetSelection",
    "FirstAllowedSelection",
    "RandomSelection",
    "make_selection",
    "SELECTION_STRATEGIES",
]


class SelectionFunction(abc.ABC):
    """Orders the allowable channels at a router by decreasing preference."""

    #: Short machine-readable name used in reports and benchmark labels.
    name: str = "abstract"

    @abc.abstractmethod
    def order(self, options: Sequence[RoutingOption], target: int) -> list[RoutingOption]:
        """Return ``options`` sorted by decreasing preference.

        Parameters
        ----------
        options:
            The allowable channels produced by the routing function.
        target:
            The node the header is being routed towards (the destination for
            a unicast, the LCA switch for the unicast prefix of a multicast).
        """

    def best(self, options: Sequence[RoutingOption], target: int) -> RoutingOption:
        """The single most-preferred option."""
        ordered = self.order(options, target)
        if not ordered:
            raise SelectionError("selection function received no options")
        return ordered[0]


class DistanceToTargetSelection(SelectionFunction):
    """The paper's selection policy: prefer channels whose endpoint is closest
    to the target node (the LCA for multicasts).

    Distances are unweighted hop counts over the switch sub-graph, computed
    on the first routing decision and reused for every later one, so an
    instance that never routes never pays for the all-pairs table.
    Processor endpoints (the consumption channel of the target itself) are
    given distance ``-1`` so that delivering directly always wins, and ties
    are broken by preferring down-tree over down-cross over up channels and
    finally by endpoint id for determinism.
    """

    name = "distance-to-lca"

    _PHASE_RANK = {"down-tree": 0, "down-cross": 1, "up": 2}

    def __init__(self, network: Network) -> None:
        self.network = network

    @cached_property
    def _distances(self) -> dict[int, dict[int, int]]:
        return self.network.switch_distance_matrix()

    def _endpoint_distance(self, option: RoutingOption, target: int) -> int:
        endpoint = option.channel.dst
        if endpoint == target:
            return -1
        target_switch = target if self.network.is_switch(target) else self.network.switch_of(target)
        if self.network.is_processor(endpoint):
            # A consumption channel to a processor other than the target can
            # never be on a useful path; rank it last.
            return len(self._distances) + 1
        distance = self._distances.get(endpoint, {}).get(target_switch)
        if distance is None:
            return len(self._distances) + 1
        if self.network.is_processor(target):
            distance += 1
        return distance

    def order(self, options: Sequence[RoutingOption], target: int) -> list[RoutingOption]:
        return sorted(
            options,
            key=lambda option: (
                self._endpoint_distance(option, target),
                self._PHASE_RANK[option.next_phase.value],
                option.channel.dst,
                option.channel.cid,
            ),
        )


class FirstAllowedSelection(SelectionFunction):
    """Deterministic baseline: prefer channels by ascending channel id.

    This ignores the target entirely and therefore tends to produce long
    routes; it exists as the pessimistic end of the selection-function
    ablation.
    """

    name = "first-allowed"

    def order(self, options: Sequence[RoutingOption], target: int) -> list[RoutingOption]:
        return sorted(options, key=lambda option: option.channel.cid)


class RandomSelection(SelectionFunction):
    """Uniformly random preference order (seeded, for reproducibility)."""

    name = "random"

    def __init__(self, seed: int | np.random.Generator = 0) -> None:
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    def order(self, options: Sequence[RoutingOption], target: int) -> list[RoutingOption]:
        options = list(options)
        self._rng.shuffle(options)
        return options


#: Strategy names :func:`make_selection` accepts.
SELECTION_STRATEGIES = ("distance-to-lca", "first-allowed", "random")


def make_selection(
    name: str,
    network: Network,
    seed: int = 0,
) -> SelectionFunction:
    """Create a selection function by name.

    Parameters
    ----------
    name:
        One of :data:`SELECTION_STRATEGIES`.
    network:
        The network (required by the distance-based policy).
    seed:
        Seed for the random policy.
    """
    if name == "distance-to-lca":
        return DistanceToTargetSelection(network)
    if name == "first-allowed":
        return FirstAllowedSelection()
    if name == "random":
        return RandomSelection(seed)
    raise SelectionError(f"unknown selection strategy {name!r}; choose from {SELECTION_STRATEGIES}")
