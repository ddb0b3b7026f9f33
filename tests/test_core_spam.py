"""Tests for the SpamRouting facade (decision logic, static routes, plans)."""

from __future__ import annotations

import pytest

from repro.core.decision import DecisionMode
from repro.core.spam import SpamRouting
from repro.errors import RoutingError
from repro.core.interface import RoutingAlgorithm
from repro.simulator.message import Message
from repro.topology.irregular import random_irregular_network
from repro.topology.regular import hypercube_network, mesh_network


def make_message(source, destinations, mid=0):
    return Message(mid=mid, source=source, destinations=destinations, length_flits=8, created_ns=0)


class TestConstruction:
    def test_build_with_explicit_root(self, figure1):
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        assert spam.tree.root == figure1.root
        assert isinstance(spam, RoutingAlgorithm)
        assert spam.supports_multicast

    def test_build_with_strategies(self, lattice32):
        for strategy in ("center", "max-degree", "first", "random"):
            spam = SpamRouting.build(lattice32, root_strategy=strategy, seed=1)
            assert lattice32.is_switch(spam.tree.root)

    def test_rejects_foreign_tree(self, figure1, two_switch):
        from repro.spanning.tree import bfs_spanning_tree

        tree = bfs_spanning_tree(two_switch, two_switch.switches()[0])
        with pytest.raises(RoutingError):
            SpamRouting(figure1.network, tree)

    def test_works_on_regular_topologies(self):
        for network in (mesh_network(3, 3), hypercube_network(3)):
            spam = SpamRouting.build(network)
            processors = network.processors()
            path = spam.unicast_route(processors[0], processors[-1])
            assert path[-1].dst == processors[-1]


class TestPrepareAndDecide:
    def test_prepare_stores_lca_and_mask(self, figure1, figure1_spam):
        message = make_message(figure1.source, tuple(figure1.destinations))
        figure1_spam.prepare(message)
        assert message.routing_data["lca"] == figure1.lca
        expected_mask = 0
        for dest in figure1.destinations:
            expected_mask |= 1 << dest
        assert message.routing_data["dest_mask"] == expected_mask

    def test_decide_is_one_of_before_lca(self, figure1, figure1_spam):
        nodes = figure1.nodes
        message = make_message(figure1.source, tuple(figure1.destinations))
        figure1_spam.prepare(message)
        decision = figure1_spam.decide(message, nodes[2], None)
        assert decision.mode is DecisionMode.ONE_OF
        # The distance-to-LCA selection prefers the cross channel towards 3.
        assert decision.channels[0].dst == nodes[3]

    def test_decide_is_all_of_at_lca(self, figure1, figure1_spam):
        nodes = figure1.nodes
        net = figure1.network
        message = make_message(figure1.source, tuple(figure1.destinations))
        figure1_spam.prepare(message)
        in_channel = net.channel_between(nodes[3], nodes[4])
        decision = figure1_spam.decide(message, nodes[4], in_channel)
        assert decision.mode is DecisionMode.ALL_OF
        assert {c.dst for c in decision.channels} == {nodes[6], nodes[7]}

    def test_decide_stays_all_of_below_lca(self, figure1, figure1_spam):
        nodes = figure1.nodes
        net = figure1.network
        message = make_message(figure1.source, tuple(figure1.destinations))
        figure1_spam.prepare(message)
        in_channel = net.channel_between(nodes[4], nodes[6])
        decision = figure1_spam.decide(message, nodes[6], in_channel)
        assert decision.mode is DecisionMode.ALL_OF
        assert {c.dst for c in decision.channels} == {nodes[8], nodes[9], nodes[10]}

    def test_unicast_decision_reduces_to_single_channel_chain(self, figure1, figure1_spam):
        nodes = figure1.nodes
        message = make_message(figure1.source, (nodes[11],))
        figure1_spam.prepare(message)
        assert message.routing_data["lca"] == nodes[11]
        decision = figure1_spam.decide(message, nodes[2], None)
        assert decision.mode is DecisionMode.ONE_OF

    def test_decide_prepares_lazily(self, figure1, figure1_spam):
        message = make_message(figure1.source, tuple(figure1.destinations))
        # No explicit prepare(): decide() must bootstrap the routing data.
        decision = figure1_spam.decide(message, figure1.nodes[2], None)
        assert "lca" in message.routing_data
        assert len(decision.channels) >= 1


class TestStaticRoutes:
    def test_unicast_route_matches_paper_prefix(self, figure1, figure1_spam):
        nodes = figure1.nodes
        path = figure1_spam.unicast_route(figure1.source, nodes[8])
        hops = [(c.src, c.dst) for c in path]
        assert hops[0] == (nodes[5], nodes[2])
        assert hops[-1] == (nodes[6], nodes[8])
        # The distance-priority selection reproduces the paper's prefix
        # 5 -> 2 -> 3 -> 4 before descending 4 -> 6 -> 8.
        assert hops == [
            (nodes[5], nodes[2]),
            (nodes[2], nodes[3]),
            (nodes[3], nodes[4]),
            (nodes[4], nodes[6]),
            (nodes[6], nodes[8]),
        ]

    def test_unicast_route_every_pair_small_network(self, small_irregular_spam):
        network = small_irregular_spam.network
        processors = network.processors()
        for source in processors[:4]:
            for dest in processors:
                if dest == source:
                    continue
                path = small_irregular_spam.unicast_route(source, dest)
                assert path[0].src == source
                assert path[-1].dst == dest
                # Contiguity of the path.
                for previous, current in zip(path, path[1:]):
                    assert previous.dst == current.src

    def test_unicast_route_rejects_bad_endpoints(self, figure1, figure1_spam):
        with pytest.raises(RoutingError):
            figure1_spam.unicast_route(figure1.nodes[4], figure1.nodes[8])
        with pytest.raises(RoutingError):
            figure1_spam.unicast_route(figure1.source, figure1.source)

    def test_multicast_plan_facade(self, figure1, figure1_spam):
        plan = figure1_spam.multicast_plan(figure1.source, figure1.destinations)
        assert plan.lca == figure1.lca

    def test_routes_respect_phase_order_on_random_networks(self):
        for seed in (1, 5):
            network = random_irregular_network(14, extra_links=8, seed=seed)
            spam = SpamRouting.build(network)
            processors = network.processors()
            rank = {"up": 0, "down-cross": 1, "down-tree": 2}
            for dest in processors[1:6]:
                path = spam.unicast_route(processors[0], dest)
                ranks = [
                    rank[
                        "up"
                        if spam.labeling.label(c).is_up
                        else "down-cross"
                        if spam.labeling.label(c).is_down_cross
                        else "down-tree"
                    ]
                    for c in path
                ]
                assert ranks == sorted(ranks), f"phase order violated: {ranks}"
