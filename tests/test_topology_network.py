"""Unit tests for the network graph model (`repro.topology.network`)."""

from __future__ import annotations

import pytest

from repro.errors import ConnectivityError, TopologyError
from repro.topology.channels import LinkRole, NodeKind
from repro.topology.network import Network


def build_simple() -> Network:
    net = Network(ports_per_switch=4, name="simple")
    a = net.add_switch("A")
    b = net.add_switch("B")
    net.connect(a, b)
    net.add_processor(a, "pA")
    net.add_processor(b, "pB")
    return net


class TestConstruction:
    def test_node_counts(self):
        net = build_simple()
        assert net.num_switches == 2
        assert net.num_processors == 2
        assert net.num_nodes == 4

    def test_channel_counts_are_directional(self):
        net = build_simple()
        # 3 bidirectional links (A-B, A-pA, B-pB) -> 6 unidirectional channels.
        assert net.num_channels == 6

    def test_labels_resolve_to_ids(self):
        net = build_simple()
        assert net.label(net.node_by_label("A")) == "A"
        assert net.label(net.node_by_label("pB")) == "pB"

    def test_duplicate_label_rejected(self):
        net = Network()
        net.add_switch("X")
        with pytest.raises(TopologyError):
            net.add_switch("X")

    def test_duplicate_link_rejected(self):
        net = Network()
        a, b = net.add_switch(), net.add_switch()
        net.connect(a, b)
        with pytest.raises(TopologyError):
            net.connect(a, b)

    def test_self_loop_rejected(self):
        net = Network()
        a = net.add_switch()
        with pytest.raises(TopologyError):
            net.connect(a, a)

    def test_port_budget_enforced(self):
        net = Network(ports_per_switch=2)
        hub = net.add_switch("hub")
        net.connect(hub, net.add_switch())
        net.connect(hub, net.add_switch())
        with pytest.raises(TopologyError):
            net.connect(hub, net.add_switch())

    def test_processor_budget_counts_against_ports(self):
        net = Network(ports_per_switch=1)
        s = net.add_switch()
        net.add_processor(s)
        with pytest.raises(TopologyError):
            net.add_processor(s)

    def test_processor_to_processor_impossible(self):
        net = Network()
        s = net.add_switch()
        p = net.add_processor(s)
        with pytest.raises(TopologyError):
            net.connect(p, s)  # connect() requires switches

    def test_unlimited_ports_when_none(self):
        net = Network(ports_per_switch=None)
        hub = net.add_switch()
        for _ in range(20):
            net.connect(hub, net.add_switch())
        assert net.degree(hub) == 20


class TestQueries:
    def test_kinds(self):
        net = build_simple()
        assert net.kind(net.node_by_label("A")) is NodeKind.SWITCH
        assert net.is_processor(net.node_by_label("pA"))

    def test_switch_of_and_processors_of(self):
        net = build_simple()
        a = net.node_by_label("A")
        pa = net.node_by_label("pA")
        assert net.switch_of(pa) == a
        assert net.processors_of(a) == [pa]

    def test_switch_of_rejects_switch_argument(self):
        net = build_simple()
        with pytest.raises(TopologyError):
            net.switch_of(net.node_by_label("A"))

    def test_channel_between_and_reverse(self):
        net = build_simple()
        a, b = net.node_by_label("A"), net.node_by_label("B")
        ab = net.channel_between(a, b)
        ba = net.channel(ab.reverse_cid)
        assert (ab.src, ab.dst) == (a, b)
        assert (ba.src, ba.dst) == (b, a)
        assert ba.reverse_cid == ab.cid

    def test_channel_roles(self):
        net = build_simple()
        a = net.node_by_label("A")
        pa = net.node_by_label("pA")
        assert net.channel_between(pa, a).role is LinkRole.INJECTION
        assert net.channel_between(a, pa).role is LinkRole.CONSUMPTION
        b = net.node_by_label("B")
        assert net.channel_between(a, b).role is LinkRole.INTERNAL

    def test_injection_and_consumption_accessors(self):
        net = build_simple()
        pa = net.node_by_label("pA")
        assert net.injection_channel(pa).src == pa
        assert net.consumption_channel(pa).dst == pa

    def test_channels_from_and_into(self):
        net = build_simple()
        a = net.node_by_label("A")
        outgoing = {c.dst for c in net.channels_from(a)}
        incoming = {net.channel(c.reverse_cid).src for c in net.channels_from(a)}
        expected = {net.node_by_label("B"), net.node_by_label("pA")}
        assert outgoing == expected
        assert incoming == expected

    def test_missing_channel_raises(self):
        net = build_simple()
        pa, pb = net.node_by_label("pA"), net.node_by_label("pB")
        assert not net.has_channel(pa, pb)
        with pytest.raises(TopologyError):
            net.channel_between(pa, pb)

    def test_unknown_node_raises(self):
        net = build_simple()
        with pytest.raises(TopologyError):
            net.degree(99)
        with pytest.raises(TopologyError):
            net.node_by_label("missing")


class TestGraphLevel:
    def test_connectivity(self):
        net = build_simple()
        assert net.is_connected()
        disconnected = Network()
        disconnected.add_switch()
        disconnected.add_switch()
        assert not disconnected.is_connected()
        with pytest.raises(ConnectivityError):
            disconnected.require_connected()

    def test_switch_distance_matrix_excludes_processors(self):
        net = build_simple()
        matrix = net.switch_distance_matrix()
        a, b = net.node_by_label("A"), net.node_by_label("B")
        assert matrix[a][b] == 1
        assert net.node_by_label("pA") not in matrix[a]

    def test_iter_bidirectional_links(self):
        net = build_simple()
        links = list(net.iter_bidirectional_links())
        assert len(links) == net.num_channels // 2
        assert all(a < b for a, b in links)
