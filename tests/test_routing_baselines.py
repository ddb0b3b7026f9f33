"""Tests for the baseline routing algorithms and the software multicast."""

from __future__ import annotations

import pytest

from repro.core.decision import one_of
from repro.core.interface import RoutingAlgorithm
from repro.core.spam import SpamRouting
from repro.errors import RoutingError, WorkloadError
from repro.routing.naive import NaiveMinimalRouting
from repro.routing.unicast_multicast import (
    UnicastMulticastScheduler,
    binomial_schedule,
    minimum_phases,
)
from repro.routing.updown import UpDownRouting
from repro.simulator.message import Message
from repro.topology.irregular import random_irregular_network


def make_message(source, destinations, mid=0):
    return Message(mid=mid, source=source, destinations=destinations, length_flits=8, created_ns=0)


class TestUpDownRouting:
    def test_routes_every_pair(self, lattice32):
        updown = UpDownRouting.build(lattice32)
        processors = lattice32.processors()
        for source in processors[:3]:
            for dest in processors[:10]:
                if dest == source:
                    continue
                path = updown.unicast_route(source, dest)
                assert path[0].src == source
                assert path[-1].dst == dest

    def test_no_up_after_down(self, lattice32):
        updown = UpDownRouting.build(lattice32)
        processors = lattice32.processors()
        for dest in processors[1:8]:
            path = updown.unicast_route(processors[0], dest)
            seen_down = False
            for channel in path:
                if updown.labeling.is_up(channel):
                    assert not seen_down, "up channel used after a down channel"
                else:
                    seen_down = True

    def test_down_reachability_matches_bfs(self, figure1):
        updown = UpDownRouting.build(figure1.network, root=figure1.root)
        nodes = figure1.nodes
        # From the root every node is reachable with down channels only.
        for node in figure1.network.nodes():
            assert updown.down_reachable(nodes[1], node)
        # From node 6 only its own subtree is reachable going down.
        assert updown.down_reachable(nodes[6], nodes[8])
        assert not updown.down_reachable(nodes[6], nodes[11])

    def test_rejects_multicast_messages(self, figure1):
        updown = UpDownRouting.build(figure1.network, root=figure1.root)
        message = make_message(figure1.source, tuple(figure1.destinations))
        with pytest.raises(NotImplementedError):
            updown.decide(message, figure1.nodes[2], None)

    def test_shares_tree_with_spam(self, lattice32):
        spam = SpamRouting.build(lattice32)
        updown = UpDownRouting(lattice32, spam.tree, spam.selection)
        assert updown.tree.root == spam.tree.root


class TestNaiveMinimalRouting:
    def test_paths_are_minimal(self, mesh3x3):
        naive = NaiveMinimalRouting(mesh3x3)
        processors = mesh3x3.processors()
        source, dest = processors[0], processors[-1]
        path = naive.unicast_route(source, dest)
        # Mesh corner to corner: injection, 4 switch hops, consumption.
        assert len(path) == 6

    def test_decision_offers_only_closer_channels(self, ring8):
        naive = NaiveMinimalRouting(ring8)
        processors = ring8.processors()
        message = make_message(processors[0], (processors[3],))
        decision = naive.decide(message, ring8.switch_of(processors[0]), None)
        dist = naive._distances(processors[3])
        here = dist[ring8.switch_of(processors[0])]
        assert all(dist[c.dst] < here for c in decision.channels)


#: Every routing algorithm, built on a network with its default root.
ROUTINGS = {
    "spam": SpamRouting.build,
    "updown": UpDownRouting.build,
    "naive": NaiveMinimalRouting,
}


class _Clockwise(RoutingAlgorithm):
    """Always forwards to the next switch of a ring: no route arrives."""

    name = "clockwise"

    def __init__(self, network):
        self.network = network

    def decide(self, message, switch, in_channel):
        switches = self.network.switches()
        following = switches[(switches.index(switch) + 1) % len(switches)]
        return one_of([self.network.channel_between(switch, following)])


class _PreparedNaive(NaiveMinimalRouting):
    """Naive minimal routing that refuses a message ``prepare`` never saw."""

    def prepare(self, message):
        message.routing_data["prepared"] = True

    def decide(self, message, switch, in_channel):
        if not message.routing_data.get("prepared"):
            raise RoutingError("decide before prepare")
        return super().decide(message, switch, in_channel)


class TestUnicastRouteWalk:
    """``RoutingAlgorithm.unicast_route`` is the one route walk of every
    algorithm."""

    @pytest.mark.parametrize("build", list(ROUTINGS.values()), ids=list(ROUTINGS))
    def test_rejects_endpoints_that_are_not_distinct_processors(self, figure1, build):
        routing = build(figure1.network)
        switch, processor = figure1.nodes[4], figure1.source
        for source, destination in ((switch, processor), (processor, switch), (processor, processor)):
            with pytest.raises(RoutingError):
                routing.unicast_route(source, destination)

    def test_prepares_the_probe_before_deciding(self, mesh3x3):
        processors = mesh3x3.processors()
        source, dest = processors[0], processors[-1]
        path = _PreparedNaive(mesh3x3).unicast_route(source, dest)
        assert path == NaiveMinimalRouting(mesh3x3).unicast_route(source, dest)

    def test_a_walk_that_never_arrives_raises(self, ring8):
        processors = ring8.processors()
        with pytest.raises(RoutingError, match="did not terminate"):
            _Clockwise(ring8).unicast_route(processors[0], processors[3])


class TestSoftwareMulticast:
    def test_minimum_phases(self):
        assert minimum_phases(0) == 0
        assert minimum_phases(1) == 1
        assert minimum_phases(2) == 2
        assert minimum_phases(3) == 2
        assert minimum_phases(7) == 3
        assert minimum_phases(8) == 4
        assert minimum_phases(255) == 8
        with pytest.raises(WorkloadError):
            minimum_phases(-1)

    def test_binomial_schedule_reaches_all_and_doubles(self):
        steps = binomial_schedule(100, list(range(15)))
        recipients = [s.recipient for s in steps]
        assert sorted(recipients) == list(range(15))
        assert max(s.phase for s in steps) + 1 == minimum_phases(15)
        # In phase p at most 2**p sends occur.
        from collections import Counter

        per_phase = Counter(s.phase for s in steps)
        for phase, count in per_phase.items():
            assert count <= 2**phase

    def test_binomial_schedule_senders_hold_message(self):
        steps = binomial_schedule(0, [1, 2, 3, 4, 5])
        informed = {0}
        for step in sorted(steps, key=lambda s: (s.phase, s.recipient)):
            assert step.sender in informed
            informed.add(step.recipient)

    def test_schedule_rejects_bad_input(self):
        with pytest.raises(WorkloadError):
            binomial_schedule(1, [1, 2])
        with pytest.raises(WorkloadError):
            binomial_schedule(0, [1, 1])

    def test_scheduler_drives_forwarding(self):
        scheduler = UnicastMulticastScheduler(source=0, destinations=(1, 2, 3, 4, 5, 6, 7))
        first = scheduler.initial_sends()
        assert all(step.sender == 0 for step in first)
        # Deliver to the first recipient; it must forward to someone new.
        forwarded = scheduler.on_delivery(first[0].recipient)
        assert all(step.sender == first[0].recipient for step in forwarded)
        # Duplicate deliveries are ignored.
        assert scheduler.on_delivery(first[0].recipient) == []
        with pytest.raises(WorkloadError):
            scheduler.on_delivery(99)
        assert not scheduler.finished
        for dest in (1, 2, 3, 4, 5, 6, 7):
            scheduler.on_delivery(dest)
        assert scheduler.finished
