"""Tests for topology generators, builders, validators and properties."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology.builder import NetworkBuilder
from repro.topology.examples import figure1_network, line_network
from repro.topology.irregular import (
    IrregularLatticeGenerator,
    lattice_irregular_network,
    random_irregular_network,
)
from repro.topology.properties import (
    average_switch_distance,
    graph_center_switches,
    summarize,
    switch_diameter,
)
from repro.topology.regular import hypercube_network, mesh_network, ring_network
from repro.topology.validate import validate_network


class TestBuilder:
    def test_fluent_construction(self):
        net = (
            NetworkBuilder(ports_per_switch=8)
            .switches("A", "B", "C")
            .link("A", "B")
            .link("B", "C")
            .processor("pA", on="A")
            .processors_everywhere()
            .build()
        )
        assert net.num_switches == 3
        # explicit pA plus one per switch
        assert net.num_processors == 4

    def test_build_requires_connectivity(self):
        builder = NetworkBuilder().switches("A", "B")
        with pytest.raises(Exception):
            builder.build(require_connected=True)

    def test_builder_single_use(self):
        builder = NetworkBuilder().switches("A")
        builder.processor("p", on="A")
        builder.build()
        with pytest.raises(TopologyError):
            builder.switch("B")


class TestFigure1:
    def test_structure_matches_paper(self):
        fixture = figure1_network()
        net = fixture.network
        # Switches 1,2,3,4,6,7; processors 5,8,9,10,11.
        assert net.num_switches == 6
        assert net.num_processors == 5
        # Tree + cross edges from the paper.
        for a, b in [(1, 2), (1, 3), (1, 4), (4, 6), (4, 7), (2, 3), (3, 4)]:
            assert net.has_channel(fixture.nodes[a], fixture.nodes[b])
        # Processor attachments.
        assert net.switch_of(fixture.nodes[5]) == fixture.nodes[2]
        assert net.switch_of(fixture.nodes[8]) == fixture.nodes[6]
        assert net.switch_of(fixture.nodes[11]) == fixture.nodes[7]

    def test_fixture_accessors(self):
        fixture = figure1_network()
        assert fixture.source == fixture.nodes[5]
        assert fixture.root == fixture.nodes[1]
        assert len(fixture.destinations) == 4

    def test_node_id_order_matches_labels(self):
        fixture = figure1_network()
        ids = [fixture.nodes[label] for label in range(1, 12)]
        assert ids == sorted(ids)


class TestIrregularGenerators:
    @pytest.mark.parametrize("size", [8, 32, 64])
    def test_lattice_generator_produces_connected_networks(self, size):
        net = lattice_irregular_network(size, seed=1)
        assert net.num_switches == size
        assert net.num_processors == size
        assert net.is_connected()

    def test_lattice_respects_port_budget(self):
        net = lattice_irregular_network(48, seed=3)
        report = validate_network(net)
        assert report.ok, report.violations

    def test_lattice_determinism(self):
        a = lattice_irregular_network(24, seed=9)
        b = lattice_irregular_network(24, seed=9)
        assert sorted(a.iter_bidirectional_links()) == sorted(b.iter_bidirectional_links())

    def test_lattice_seed_changes_topology(self):
        a = lattice_irregular_network(24, seed=1)
        b = lattice_irregular_network(24, seed=2)
        assert sorted(a.iter_bidirectional_links()) != sorted(b.iter_bidirectional_links())

    def test_generator_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            IrregularLatticeGenerator(num_switches=1)
        with pytest.raises(ConfigurationError):
            IrregularLatticeGenerator(num_switches=8, occupancy=0.0)
        with pytest.raises(ConfigurationError):
            IrregularLatticeGenerator(num_switches=8, ports_per_switch=2)

    def test_random_irregular_network(self):
        net = random_irregular_network(10, extra_links=5, seed=4)
        assert net.num_switches == 10
        assert net.is_connected()
        # Tree edges (9) plus up to 5 chords.
        assert 9 <= net.num_channels // 2 - net.num_processors <= 14

    def test_random_irregular_multiple_processors(self):
        net = random_irregular_network(4, seed=0, processors_per_switch=2)
        assert net.num_processors == 8


class TestRegularGenerators:
    def test_mesh(self):
        net = mesh_network(3, 4)
        assert net.num_switches == 12
        assert net.is_connected()
        # Corner switches have degree 2 (+1 processor).
        corner = net.node_by_label("s0_0")
        assert net.degree(corner) == 3

    def test_hypercube(self):
        net = hypercube_network(4)
        assert net.num_switches == 16
        for switch in net.switches():
            switch_neighbors = [n for n in net.neighbors(switch) if net.is_switch(n)]
            assert len(switch_neighbors) == 4

    def test_ring(self):
        ring = ring_network(6)
        assert ring.num_switches == 6
        for switch in ring.switches():
            switch_neighbors = [n for n in ring.neighbors(switch) if ring.is_switch(n)]
            assert len(switch_neighbors) == 2

    def test_dimension_checks(self):
        with pytest.raises(ConfigurationError):
            hypercube_network(0)
        with pytest.raises(ConfigurationError):
            mesh_network(0, 3)
        with pytest.raises(ConfigurationError):
            ring_network(2)


class TestPropertiesAndValidation:
    def test_line_properties(self):
        net = line_network(5)
        assert switch_diameter(net) == 4
        centers = graph_center_switches(net)
        assert centers == [net.node_by_label("s2")]
        assert average_switch_distance(net) == pytest.approx(2.0)

    def test_summarize(self):
        net = mesh_network(3, 3)
        summary = summarize(net)
        assert summary.num_switches == 9
        assert summary.switch_diameter == 4
        assert summary.as_dict()["switches"] == 9

    def test_validate_flags_disconnected(self):
        from repro.topology.network import Network

        net = Network()
        a = net.add_switch()
        net.add_switch()
        net.add_processor(a)
        report = validate_network(net)
        assert not report.ok
        assert any("connected" in v for v in report.violations)
        with pytest.raises(TopologyError):
            report.raise_if_invalid()

    def test_validate_ok_network_with_warning(self):
        from repro.topology.network import Network

        net = Network()
        a = net.add_switch()
        b = net.add_switch()
        net.connect(a, b)
        net.add_processor(a)
        report = validate_network(net)
        assert report.ok
        assert any("no attached processor" in w for w in report.warnings)

    def test_validate_requires_processors(self):
        from repro.topology.network import Network

        net = Network()
        a = net.add_switch()
        b = net.add_switch()
        net.connect(a, b)
        report = validate_network(net)
        assert not report.ok


class TestDeterministicProperties:
    """Regression tests for set-iteration hazards fixed by repro-lint (R1)."""

    def test_eccentricities_insertion_order_is_sorted(self):
        from repro.topology.properties import switch_eccentricities

        net = lattice_irregular_network(24, seed=3)
        ecc = switch_eccentricities(net)
        # The dict's insertion order is a public, observable property; it
        # must follow switch ids, never the salted set-hash order.
        assert list(ecc) == sorted(ecc)

    def test_average_switch_distance_stable_across_calls(self):
        net = lattice_irregular_network(24, seed=3)
        assert average_switch_distance(net) == average_switch_distance(net)
