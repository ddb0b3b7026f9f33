"""Tests for the destination-partitioning extension (paper §5)."""

from __future__ import annotations

import pytest

from repro.core.partition import dfs_order, partition_contiguous
from repro.errors import ConfigurationError, WorkloadError
from repro.spanning.tree import bfs_spanning_tree


@pytest.fixture
def lattice_tree(lattice32):
    return bfs_spanning_tree(lattice32, lattice32.switches()[0])


def all_destinations(network, count=16):
    return network.processors()[:count]


class TestDfsOrder:
    def test_root_first_and_all_nodes_present(self, lattice32, lattice_tree):
        order = dfs_order(lattice_tree)
        assert order[lattice_tree.root] == 0
        assert sorted(order.values()) == list(range(lattice32.num_nodes))

    def test_children_follow_parents(self, lattice_tree):
        order = dfs_order(lattice_tree)
        for node in order:
            parent = lattice_tree.parent(node)
            if parent is not None:
                assert order[parent] < order[node]


class TestContiguousPartition:
    def test_partition_sizes_balanced(self, lattice32, lattice_tree):
        destinations = all_destinations(lattice32, 17)
        groups = partition_contiguous(lattice_tree, destinations, 4)
        assert len(groups) == 4
        sizes = sorted(len(g) for g in groups)
        assert sizes == [4, 4, 4, 5]
        assert sorted(sum(groups, [])) == sorted(destinations)

    def test_groups_are_contiguous_in_dfs_order(self, lattice32, lattice_tree):
        destinations = all_destinations(lattice32, 12)
        order = dfs_order(lattice_tree)
        groups = partition_contiguous(lattice_tree, destinations, 3)
        ranked = sorted(destinations, key=lambda node: order[node])
        flattened = sum(groups, [])
        assert flattened == ranked

    def test_more_groups_than_destinations(self, lattice32, lattice_tree):
        destinations = all_destinations(lattice32, 3)
        groups = partition_contiguous(lattice_tree, destinations, 10)
        assert len(groups) == 3
        assert all(len(g) == 1 for g in groups)

    def test_single_group_is_identity(self, lattice32, lattice_tree):
        destinations = all_destinations(lattice32, 9)
        groups = partition_contiguous(lattice_tree, destinations, 1)
        assert len(groups) == 1
        assert sorted(groups[0]) == sorted(destinations)

    def test_errors(self, lattice32, lattice_tree):
        with pytest.raises(ConfigurationError):
            partition_contiguous(lattice_tree, all_destinations(lattice32, 8), 0)
        with pytest.raises(WorkloadError):
            partition_contiguous(lattice_tree, [], 2)

    def test_partitioned_groups_have_deeper_lcas(self, lattice32, lattice_tree):
        """Partitioning by contiguity should push each group's LCA at least as
        deep as the full set's LCA — that is the whole point of the
        extension (avoid the root hot-spot)."""
        from repro.spanning.ancestry import Ancestry
        from repro.spanning.labeling import label_channels

        ancestry = Ancestry(label_channels(lattice32, lattice_tree))
        destinations = all_destinations(lattice32, 16)
        full_lca_depth = lattice_tree.depth(ancestry.lca(destinations))
        groups = partition_contiguous(lattice_tree, destinations, 4)
        for group in groups:
            assert lattice_tree.depth(ancestry.lca(group)) >= full_lca_depth
