"""Tests for spanning trees, channel labelling and root selection."""

from __future__ import annotations

import pytest

from repro.errors import SpanningTreeError
from repro.spanning.labeling import label_channels
from repro.spanning.roots import (
    center_root,
    first_switch_root,
    max_degree_root,
    random_root,
    select_root,
)
from repro.spanning.tree import SpanningTree, bfs_spanning_tree
from repro.topology.channels import ChannelKind, Orientation
from repro.topology.examples import figure1_network, line_network
from repro.topology.irregular import random_irregular_network
from repro.topology.regular import mesh_network


class TestSpanningTreeConstruction:
    def test_bfs_tree_structure_on_figure1(self, figure1):
        tree = bfs_spanning_tree(figure1.network, figure1.root)
        nodes = figure1.nodes
        assert tree.parent(nodes[2]) == nodes[1]
        assert tree.parent(nodes[3]) == nodes[1]
        assert tree.parent(nodes[4]) == nodes[1]
        assert tree.parent(nodes[5]) == nodes[2]
        assert tree.parent(nodes[6]) == nodes[4]
        assert tree.parent(nodes[8]) == nodes[6]
        assert tree.parent(nodes[11]) == nodes[7]
        assert tree.depth(nodes[1]) == 0
        assert tree.depth(nodes[8]) == 3

    def test_all_processors_are_leaves(self, lattice32):
        tree = bfs_spanning_tree(lattice32, lattice32.switches()[0])
        for processor in lattice32.processors():
            assert tree.children(processor) == ()

    def test_tree_spans_network(self, small_irregular):
        root = small_irregular.switches()[0]
        tree = bfs_spanning_tree(small_irregular, root)
        depths = [tree.depth(node) for node in small_irregular.nodes()]
        assert len(depths) == small_irregular.num_nodes

    def test_root_must_be_switch(self, figure1):
        with pytest.raises(SpanningTreeError):
            bfs_spanning_tree(figure1.network, figure1.nodes[5])

    def test_invalid_parent_map_rejected(self, two_switch):
        a, b = two_switch.switches()
        pa, pb = two_switch.processors()
        # Missing node pb.
        with pytest.raises(SpanningTreeError):
            SpanningTree(two_switch, a, {b: a, pa: a})
        # Edge that does not exist.
        with pytest.raises(SpanningTreeError):
            SpanningTree(two_switch, a, {b: a, pa: a, pb: a})
        # Root with a parent.
        with pytest.raises(SpanningTreeError):
            SpanningTree(two_switch, a, {a: b, b: a, pa: a})

    def test_path_and_subtree_queries(self, figure1):
        tree = bfs_spanning_tree(figure1.network, figure1.root)
        nodes = figure1.nodes
        assert tree.path_to_root(nodes[8]) == [nodes[8], nodes[6], nodes[4], nodes[1]]
        assert {n for n in figure1.network.nodes() if tree.is_ancestor(nodes[4], n)} == {
            nodes[4], nodes[6], nodes[7], nodes[8], nodes[9], nodes[10], nodes[11]
        }
        assert tree.is_ancestor(nodes[4], nodes[11])
        assert tree.is_ancestor(nodes[8], nodes[8])
        assert not tree.is_ancestor(nodes[6], nodes[11])

    def test_lca(self, figure1):
        tree = bfs_spanning_tree(figure1.network, figure1.root)
        nodes = figure1.nodes
        assert tree.lowest_common_ancestor([nodes[8], nodes[9]]) == nodes[6]
        assert tree.lowest_common_ancestor([nodes[8], nodes[11]]) == nodes[4]
        assert tree.lowest_common_ancestor([nodes[5], nodes[8]]) == nodes[1]
        assert tree.lowest_common_ancestor([nodes[9]]) == nodes[9]
        with pytest.raises(SpanningTreeError):
            tree.lowest_common_ancestor([])


class TestChannelLabeling:
    def test_figure1_labels_match_paper(self, figure1):
        net = figure1.network
        tree = bfs_spanning_tree(net, figure1.root)
        labeling = label_channels(net, tree)
        nodes = figure1.nodes

        # Tree channel 2->1 is up, 1->2 is down.
        assert labeling.label(net.channel_between(nodes[2], nodes[1])).is_up
        assert labeling.label(net.channel_between(nodes[1], nodes[2])).is_down_tree
        # Cross channels 2->3 and 3->4 are *down* cross channels (same level,
        # smaller id -> larger id), which is what makes the paper's route
        # 5 -> 2 -> 3 -> 4 legal.
        assert labeling.label(net.channel_between(nodes[2], nodes[3])).is_down_cross
        assert labeling.label(net.channel_between(nodes[3], nodes[4])).is_down_cross
        assert labeling.label(net.channel_between(nodes[3], nodes[2])).is_up
        # Injection / consumption channels.
        assert labeling.label(net.injection_channel(nodes[5])).is_up
        assert labeling.label(net.consumption_channel(nodes[8])).is_down_tree

    def test_every_channel_labelled_and_paired(self, lattice32):
        tree = bfs_spanning_tree(lattice32, select_root(lattice32))
        labeling = label_channels(lattice32, tree)
        for channel in lattice32.channels():
            label = labeling.label(channel)
            reverse = labeling.label(lattice32.channel(channel.reverse_cid))
            # A channel and its reverse have opposite orientations and the
            # same kind.
            assert label.orientation != reverse.orientation
            assert label.kind == reverse.kind

    def test_counts_sum_to_channel_count(self, lattice32):
        tree = bfs_spanning_tree(lattice32, select_root(lattice32))
        labeling = label_channels(lattice32, tree)
        assert sum(labeling.counts().values()) == lattice32.num_channels

    def test_up_down_split_is_half_half(self, mesh3x3):
        tree = bfs_spanning_tree(mesh3x3, mesh3x3.switches()[0])
        labeling = label_channels(mesh3x3, tree)
        ups = sum(1 for c in mesh3x3.channels() if labeling.is_up(c))
        downs = mesh3x3.num_channels - ups
        assert ups == downs

    def test_per_node_indexes_consistent(self, small_irregular):
        tree = bfs_spanning_tree(small_irregular, small_irregular.switches()[0])
        labeling = label_channels(small_irregular, tree)
        for node in small_irregular.nodes():
            indexed = (
                set(c.cid for c in labeling.up_channels_from(node))
                | set(c.cid for c in labeling.down_tree_channels_from(node))
                | set(c.cid for c in labeling.down_cross_channels_from(node))
            )
            actual = set(c.cid for c in small_irregular.channels_from(node))
            assert indexed == actual

    def test_labeling_rejects_foreign_tree(self, figure1, two_switch):
        tree = bfs_spanning_tree(two_switch, two_switch.switches()[0])
        with pytest.raises(SpanningTreeError):
            label_channels(figure1.network, tree)


class TestRootSelection:
    def test_center_root_of_line(self):
        net = line_network(5)
        assert center_root(net) == net.node_by_label("s2")

    def test_max_degree_root(self):
        net = mesh_network(3, 3)
        assert max_degree_root(net) == net.node_by_label("s1_1")

    def test_first_switch_root(self, figure1):
        assert first_switch_root(figure1.network) == figure1.nodes[1]

    def test_random_root_is_switch_and_seeded(self, lattice32):
        a = random_root(lattice32, seed=5)
        b = random_root(lattice32, seed=5)
        assert a == b
        assert lattice32.is_switch(a)

    def test_select_root_dispatch(self, lattice32):
        assert select_root(lattice32, "center") == center_root(lattice32)
        assert select_root(lattice32, "max-degree") == max_degree_root(lattice32)
        assert select_root(lattice32, "first") == first_switch_root(lattice32)
        assert lattice32.is_switch(select_root(lattice32, "random", seed=1))
        with pytest.raises(Exception):
            select_root(lattice32, "bogus")
