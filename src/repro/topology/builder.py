"""Fluent construction helpers for :class:`~repro.topology.network.Network`.

The generators in :mod:`repro.topology.irregular` and
:mod:`repro.topology.regular` produce fully-formed networks; this module
supports hand-built topologies (tests, examples, and users porting their own
switch fabric descriptions).
"""

from __future__ import annotations

from ..errors import TopologyError
from .network import Network

__all__ = ["NetworkBuilder"]


class NetworkBuilder:
    """Incrementally build a :class:`Network` with labelled nodes.

    Example
    -------
    >>> builder = NetworkBuilder(ports_per_switch=8)
    >>> builder.switches("A", "B", "C")
    >>> builder.link("A", "B").link("B", "C")
    >>> builder.processor("pA", on="A")
    >>> net = builder.build()
    """

    def __init__(self, ports_per_switch: int | None = 8, name: str = "network") -> None:
        self._network = Network(ports_per_switch=ports_per_switch, name=name)
        self._built = False

    def _check_not_built(self) -> None:
        if self._built:
            raise TopologyError("builder has already produced its network")

    def switch(self, label: str) -> "NetworkBuilder":
        """Add one switch with the given label."""
        self._check_not_built()
        self._network.add_switch(label)
        return self

    def switches(self, *labels: str) -> "NetworkBuilder":
        """Add several switches at once."""
        for label in labels:
            self.switch(label)
        return self

    def processor(self, label: str, on: str) -> "NetworkBuilder":
        """Add a processor attached to the switch labelled ``on``."""
        self._check_not_built()
        switch = self._network.node_by_label(on)
        self._network.add_processor(switch, label)
        return self

    def processors_everywhere(self, prefix: str = "p_") -> "NetworkBuilder":
        """Attach exactly one processor to every switch.

        The processor attached to switch ``X`` is labelled ``prefix + X``.
        This matches the paper's experimental configuration of one
        workstation per switch.
        """
        self._check_not_built()
        for switch in list(self._network.switches()):
            self._network.add_processor(switch, f"{prefix}{self._network.label(switch)}")
        return self

    def link(self, a: str, b: str) -> "NetworkBuilder":
        """Add a bidirectional switch-to-switch channel."""
        self._check_not_built()
        na = self._network.node_by_label(a)
        nb = self._network.node_by_label(b)
        self._network.connect(na, nb)
        return self

    def build(self, require_connected: bool = True) -> Network:
        """Finish construction and return the network."""
        self._check_not_built()
        self._built = True
        if require_connected:
            self._network.require_connected()
        return self._network
