"""Tests for routing phases, routing decisions and selection functions."""

from __future__ import annotations

import pytest

from repro.core.decision import DecisionMode, RoutingDecision, all_of, one_of
from repro.core.phases import Phase, may_follow
from repro.core.selection import (
    DistanceToTargetSelection,
    FirstAllowedSelection,
    RandomSelection,
    make_selection,
)
from repro.core.unicast import RoutingOption, unicast_options
from repro.errors import RoutingError, SelectionError
from repro.topology.channels import DOWN_CROSS, DOWN_TREE, UP_CROSS, UP_TREE


class TestPhases:
    def test_phase_of_label(self, figure1_spam):
        # SPAM reads a worm's phase off the label of the channel it came in on.
        expected = {
            UP_TREE: Phase.UP,
            UP_CROSS: Phase.UP,
            DOWN_CROSS: Phase.DOWN_CROSS,
            DOWN_TREE: Phase.DOWN_TREE,
        }
        seen = set()
        for channel in figure1_spam.network.channels():
            label = figure1_spam.labeling.label(channel)
            assert figure1_spam._phase_of(channel) is expected[label]
            seen.add(label)
        assert seen == set(expected)

    def test_may_follow_is_monotone(self):
        assert may_follow(Phase.UP, Phase.UP)
        assert may_follow(Phase.UP, Phase.DOWN_CROSS)
        assert may_follow(Phase.UP, Phase.DOWN_TREE)
        assert may_follow(Phase.DOWN_CROSS, Phase.DOWN_TREE)
        assert not may_follow(Phase.DOWN_CROSS, Phase.UP)
        assert not may_follow(Phase.DOWN_TREE, Phase.DOWN_CROSS)
        assert not may_follow(Phase.DOWN_TREE, Phase.UP)


class TestRoutingDecision:
    def test_one_of_and_all_of(self, figure1):
        net = figure1.network
        channels = net.channels_from(figure1.nodes[4])
        decision = one_of(channels[:2])
        assert decision.mode is DecisionMode.ONE_OF
        assert len(decision) == 2

        allof = all_of(channels[:3])
        assert allof.mode is DecisionMode.ALL_OF
        assert allof.channel_ids == tuple(c.cid for c in channels[:3])

    def test_empty_decision_rejected(self):
        with pytest.raises(RoutingError):
            RoutingDecision(DecisionMode.ONE_OF, ())

    def test_duplicate_channels_rejected_in_all_of(self, figure1):
        channel = figure1.network.channels_from(figure1.nodes[4])[0]
        with pytest.raises(RoutingError):
            all_of([channel, channel])


def _options_from(network, node):
    return [RoutingOption(c, Phase.UP) for c in network.channels_from(node)]


class TestSelectionFunctions:
    def test_distance_selection_prefers_closer_endpoint(self, figure1, figure1_spam):
        nodes = figure1.nodes
        selection = DistanceToTargetSelection(figure1.network)
        # At node 2 heading for LCA node 4: down-cross to 3 (distance 1) beats
        # up to 1 (distance 1) only via the phase tie-break; both beat nothing.
        options = unicast_options(
            figure1_spam.labeling, figure1_spam.ancestry, nodes[2], Phase.UP, nodes[4]
        )
        ordered = selection.order(options, nodes[4])
        assert ordered[0].channel.dst == nodes[3]

    def test_distance_selection_prefers_direct_delivery(self, figure1):
        nodes = figure1.nodes
        network = figure1.network
        selection = DistanceToTargetSelection(network)
        consumption = network.consumption_channel(nodes[8])
        other = network.channel_between(nodes[6], nodes[4])
        options = [RoutingOption(other, Phase.UP), RoutingOption(consumption, Phase.DOWN_TREE)]
        best = selection.best(options, nodes[8])
        assert best.channel.dst == nodes[8]

    def test_first_allowed_orders_by_cid(self, figure1):
        options = _options_from(figure1.network, figure1.nodes[4])
        ordered = FirstAllowedSelection().order(options, figure1.nodes[8])
        cids = [o.channel.cid for o in ordered]
        assert cids == sorted(cids)

    def test_random_selection_is_seeded(self, figure1):
        options = _options_from(figure1.network, figure1.nodes[4])
        a = RandomSelection(seed=3).order(list(options), figure1.nodes[8])
        b = RandomSelection(seed=3).order(list(options), figure1.nodes[8])
        assert [o.channel.cid for o in a] == [o.channel.cid for o in b]

    def test_selection_preserves_option_set(self, figure1):
        options = _options_from(figure1.network, figure1.nodes[4])
        for name in ("distance-to-lca", "first-allowed", "random"):
            selection = make_selection(name, figure1.network, seed=1)
            ordered = selection.order(list(options), figure1.nodes[8])
            assert sorted(o.channel.cid for o in ordered) == sorted(
                o.channel.cid for o in options
            )

    def test_best_raises_on_empty(self, figure1):
        selection = FirstAllowedSelection()
        with pytest.raises(SelectionError):
            selection.best([], figure1.nodes[8])

    def test_make_selection_unknown_name(self, figure1):
        with pytest.raises(SelectionError):
            make_selection("bogus", figure1.network)
