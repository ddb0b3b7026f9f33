"""Shared fixtures for the test suite.

Fixtures are deliberately small (a handful of switches) so that the whole
suite — including the flit-level simulation tests — runs in seconds; the
paper-scale configurations are exercised by the end-to-end benchmark
(``benchmarks/e2e/``) and regenerated by ``repro-spam --scale paper``.
"""

from __future__ import annotations

import pytest

from repro.core.spam import SpamRouting
from repro.simulator.config import SimulationConfig
from repro.topology.examples import figure1_network, line_network, two_switch_network
from repro.topology.irregular import lattice_irregular_network, random_irregular_network
from repro.topology.regular import mesh_network, ring_network


@pytest.fixture
def figure1():
    """The paper's Figure 1 network fixture."""
    return figure1_network()


@pytest.fixture
def figure1_spam(figure1):
    """SPAM built on the Figure 1 network with the paper's root (vertex 1)."""
    return SpamRouting.build(figure1.network, root=figure1.root)


@pytest.fixture
def small_irregular():
    """A small random irregular network with chords (12 switches)."""
    return random_irregular_network(12, extra_links=6, seed=3)


@pytest.fixture
def small_irregular_spam(small_irregular):
    """SPAM on the small irregular network."""
    return SpamRouting.build(small_irregular)


@pytest.fixture
def lattice32():
    """A 32-switch paper-style lattice irregular network."""
    return lattice_irregular_network(32, seed=7)


@pytest.fixture
def lattice32_spam(lattice32):
    """SPAM on the 32-switch lattice network."""
    return SpamRouting.build(lattice32)


@pytest.fixture(scope="session")
def paper_network():
    """The paper's 128-switch topology with Figure 3's seed and root, and
    SPAM on it (neither changes during a simulation)."""
    network = lattice_irregular_network(128, seed=7)
    return network, SpamRouting.build(network, root_strategy="center")


@pytest.fixture
def mesh3x3():
    """A 3x3 mesh (regular topology)."""
    return mesh_network(3, 3)


@pytest.fixture
def ring8():
    """An 8-switch ring (used by the deadlock-injection tests)."""
    return ring_network(8)


@pytest.fixture
def two_switch():
    """Two switches, one processor each."""
    return two_switch_network()


@pytest.fixture
def line5():
    """A line of five switches."""
    return line_network(5)


@pytest.fixture
def short_config():
    """A simulation configuration with short messages for fast tests."""
    return SimulationConfig(message_length_flits=8)
