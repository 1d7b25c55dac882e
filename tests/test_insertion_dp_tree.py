"""Unit tests for DP tree construction (Step 1) and edge segmentation."""

import pytest

from repro.insertion import InsertionMode, build_dp_tree
from repro.insertion.dp_tree import segment_long_edges
from tests.conftest import make_random_clock_net, route_tree


@pytest.fixture()
def routed(pdk):
    clock_net = make_random_clock_net(count=100, extent=120.0, seed=4)
    return route_tree(pdk, clock_net, high_cluster_size=60, low_cluster_size=8)


class TestSegmentation:
    def test_no_segmentation_when_edges_are_short(self, pdk, routed):
        added = segment_long_edges(routed, max_segment_length=1e6)
        assert added == 0

    def test_segmentation_bounds_edge_length(self, pdk, routed):
        tree = routed
        added = segment_long_edges(tree, max_segment_length=15.0)
        assert added > 0
        for node in tree.nodes():
            if node.parent is not None and not node.is_sink:
                assert node.edge_length() <= 15.0 + 1e-6

    def test_segmentation_preserves_sinks_and_wirelength(self, pdk, routed):
        tree = routed
        before_sinks = tree.sink_count()
        before_wl = tree.wirelength()
        segment_long_edges(tree, max_segment_length=20.0)
        assert tree.sink_count() == before_sinks
        assert tree.wirelength() == pytest.approx(before_wl, rel=1e-9)
        tree.validate()

    def test_invalid_length_rejected(self, routed):
        with pytest.raises(ValueError):
            segment_long_edges(routed, max_segment_length=0.0)


class TestBuildDpTree:
    def test_one_dp_node_per_trunk_edge(self, pdk, routed):
        tree = routed
        dp_tree = build_dp_tree(tree, pdk, max_segment_length=None)
        trunk_edges = [
            n for n in tree.nodes() if n.parent is not None and not n.is_sink
        ]
        assert dp_tree.node_count == len(trunk_edges)

    def test_bottom_up_order(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        position = {id(node): i for i, node in enumerate(dp_tree.nodes)}
        for node in dp_tree.nodes:
            for pred in node.predecessors:
                assert position[id(pred)] < position[id(node)]

    def test_leaf_dp_nodes_carry_leaf_net_load(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        for leaf in dp_tree.leaves():
            assert leaf.base_capacitance > 0
            assert leaf.base_max_delay >= leaf.base_min_delay >= 0
            assert leaf.has_direct_sinks

    def test_fanout_counts_sinks_downstream(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        total_sinks = routed.sink_count()
        assert max(node.fanout for node in dp_tree.nodes) == total_sinks
        root_fanout = sum(root.fanout for root in dp_tree.root_nodes)
        assert root_fanout == total_sinks

    def test_root_nodes_are_children_of_clock_root(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        for root_dp in dp_tree.root_nodes:
            assert root_dp.tree_child.parent is routed.root

    def test_default_mode_applied(self, pdk, routed):
        dp_tree = build_dp_tree(
            routed, pdk, max_segment_length=None,
            default_mode=InsertionMode.INTRA_SIDE,
        )
        assert all(n.mode is InsertionMode.INTRA_SIDE for n in dp_tree.nodes)

    def test_configure_fanout_threshold(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        dp_tree.configure_fanout_threshold(10)
        histogram = dp_tree.mode_histogram()
        assert histogram[InsertionMode.FULL] > 0
        assert histogram[InsertionMode.INTRA_SIDE] > 0
        for node in dp_tree.nodes:
            expected = (
                InsertionMode.FULL if node.fanout < 10 else InsertionMode.INTRA_SIDE
            )
            assert node.mode is expected

    def test_configure_fanout_threshold_extremes(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        dp_tree.configure_fanout_threshold(10 ** 9)
        assert dp_tree.mode_histogram()[InsertionMode.INTRA_SIDE] == 0
        dp_tree.configure_fanout_threshold(0)
        assert dp_tree.mode_histogram()[InsertionMode.FULL] == 0

    def test_negative_threshold_rejected(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        with pytest.raises(ValueError):
            dp_tree.configure_fanout_threshold(-1)

    def test_configure_modes_callable(self, pdk, routed):
        dp_tree = build_dp_tree(routed, pdk, max_segment_length=None)
        dp_tree.configure_modes(
            lambda node: InsertionMode.FULL if node.is_leaf else InsertionMode.INTRA_SIDE
        )
        for node in dp_tree.nodes:
            assert node.mode is (
                InsertionMode.FULL if node.is_leaf else InsertionMode.INTRA_SIDE
            )

    def test_segmentation_increases_dp_nodes(self, pdk, routed):
        unsegmented = build_dp_tree(routed.copy(), pdk, max_segment_length=None)
        segmented = build_dp_tree(routed.copy(), pdk, max_segment_length=10.0)
        assert segmented.node_count > unsegmented.node_count
