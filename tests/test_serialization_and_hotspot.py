"""Tests for topology serialisation and the static hot-spot analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.hotspot import analyze_multicast_load, root_traversal_probability
from repro.core.spam import SpamRouting
from repro.errors import TopologyError
from repro.topology.examples import figure1_network
from repro.topology.irregular import lattice_irregular_network
from repro.topology.serialization import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)


class TestSerialization:
    def test_round_trip_preserves_structure(self, lattice32):
        document = network_to_dict(lattice32)
        rebuilt = network_from_dict(document)
        assert rebuilt.num_switches == lattice32.num_switches
        assert rebuilt.num_processors == lattice32.num_processors
        assert sorted(rebuilt.iter_bidirectional_links()) == sorted(
            lattice32.iter_bidirectional_links()
        )
        for node in lattice32.nodes():
            assert rebuilt.label(node) == lattice32.label(node)
            assert rebuilt.kind(node) == lattice32.kind(node)

    def test_round_trip_preserves_routing_behaviour(self, figure1):
        rebuilt = network_from_dict(network_to_dict(figure1.network))
        original = SpamRouting.build(figure1.network, root=figure1.root)
        clone = SpamRouting.build(rebuilt, root=figure1.root)
        source = figure1.source
        dest = figure1.destinations[0]
        original_path = [(c.src, c.dst) for c in original.unicast_route(source, dest)]
        clone_path = [(c.src, c.dst) for c in clone.unicast_route(source, dest)]
        assert original_path == clone_path

    def test_save_and_load_file(self, tmp_path, small_irregular):
        path = save_network(small_irregular, tmp_path / "network.json")
        assert path.exists()
        loaded = load_network(path)
        assert loaded.num_switches == small_irregular.num_switches
        assert loaded.name == small_irregular.name

    def test_rejects_foreign_documents(self):
        with pytest.raises(TopologyError):
            network_from_dict({"format": "something-else"})
        with pytest.raises(TopologyError):
            network_from_dict({"format": "repro-network", "version": 99})

    def test_document_is_json_friendly(self, two_switch):
        import json

        document = network_to_dict(two_switch)
        encoded = json.dumps(document)
        assert json.loads(encoded) == document


class TestHotspotAnalysis:
    def test_figure1_broadcast_goes_through_lca_not_root(self):
        fixture = figure1_network()
        spam = SpamRouting.build(fixture.network, root=fixture.root)
        report = analyze_multicast_load(spam, [(fixture.source, fixture.destinations)])
        assert report.multicasts == 1
        # The LCA of {8,9,10,11} is node 4, not the root, so no root traversal.
        assert report.root_traversals == 0
        assert report.switch_load[fixture.nodes[4]] > 0

    def test_channel_load_counts_trees(self, lattice32_spam, lattice32):
        processors = lattice32.processors()
        multicasts = [
            (processors[0], processors[1:9]),
            (processors[3], processors[10:18]),
            (processors[20], processors[1:9]),
        ]
        report = analyze_multicast_load(lattice32_spam, multicasts)
        assert report.multicasts == 3
        assert max(report.channel_load.values()) <= 3
        assert len(report.channel_load) >= 3

    def test_root_probability_grows_with_destination_count(self, lattice32_spam):
        small = root_traversal_probability(lattice32_spam, 2, samples=60, seed=1)
        large = root_traversal_probability(lattice32_spam, 24, samples=60, seed=1)
        assert 0.0 <= small <= 1.0
        assert large >= small
        # A near-broadcast almost always needs the root (paper §5's concern).
        assert large > 0.8

    def test_empty_report_defaults(self):
        from repro.analysis.hotspot import HotspotReport

        report = HotspotReport()
        assert report.root_traversal_fraction == 0.0
        assert report.channel_load == {} and report.switch_load == {}
