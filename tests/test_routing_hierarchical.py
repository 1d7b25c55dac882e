"""Unit tests for the hierarchical clock router (Section III-B)."""

import pytest

from repro.clocktree import NodeKind
from repro.flow import BackendSelection, CtsConfig
from repro.geometry import Point
from repro.netlist import ClockNet, ClockSink, ClockSource
from repro.routing import DME_BACKEND_NAMES, HierarchicalClockRouter
from repro.tech.layers import Side
from tests.conftest import make_random_clock_net


def route(pdk, clock_net, dme_backend=None, **config_kwargs):
    """Route ``clock_net``; returns the routing result and its object tree."""
    config = CtsConfig(backends=BackendSelection(dme=dme_backend), **config_kwargs)
    result = HierarchicalClockRouter(pdk, config=config).route_design(clock_net)
    return result, result.design.to_clock_tree()


class TestHierarchicalRouting:
    def test_tree_contains_all_sinks(self, pdk, random_clock_net):
        result, tree = route(
            pdk, random_clock_net, high_cluster_size=60, low_cluster_size=8
        )
        sink_names = {n.name for n in tree.sinks()}
        assert sink_names == {s.name for s in random_clock_net.sinks}

    def test_tree_validates_and_is_front_side_only(self, pdk, random_clock_net):
        result, tree = route(
            pdk, random_clock_net, high_cluster_size=60, low_cluster_size=8
        )
        tree.validate()
        assert all(n.side is Side.FRONT for n in tree.nodes())
        assert tree.buffer_count() == 0
        assert tree.ntsv_count() == 0

    def test_root_matches_clock_source(self, pdk, grid_clock_net):
        result, tree = route(
            pdk, grid_clock_net, high_cluster_size=30, low_cluster_size=5
        )
        assert tree.root.location == grid_clock_net.source.location
        assert tree.root.kind is NodeKind.ROOT

    def test_tap_nodes_match_low_clusters(self, pdk, random_clock_net):
        result, tree = route(
            pdk, random_clock_net, high_cluster_size=60, low_cluster_size=8
        )
        assert result.clustering is not None
        assert len(result.tap_names) == len(result.clustering.low_clusters)
        taps_in_tree = [n for n in tree.nodes() if n.kind is NodeKind.TAP]
        assert len(taps_in_tree) == len(result.tap_names)

    def test_sinks_attach_only_to_taps(self, pdk, random_clock_net):
        result, tree = route(
            pdk, random_clock_net, high_cluster_size=60, low_cluster_size=8
        )
        for sink in tree.sinks():
            assert sink.parent.kind is NodeKind.TAP

    def test_wirelength_breakdown_sums_to_total(self, pdk, random_clock_net):
        result, tree = route(
            pdk, random_clock_net, high_cluster_size=60, low_cluster_size=8
        )
        assert result.total_wirelength == pytest.approx(tree.wirelength())
        assert result.leaf_wirelength > 0
        assert result.trunk_wirelength > 0

    def test_multiple_high_clusters_are_joined_at_the_top(self, pdk):
        clock_net = make_random_clock_net(count=240, extent=400.0, seed=5)
        result, tree = route(pdk, clock_net, high_cluster_size=80, low_cluster_size=8)
        assert len(result.clustering.high_clusters) >= 2
        tree.validate()
        assert {n.name for n in tree.sinks()} == {s.name for s in clock_net.sinks}

    def test_single_sink_design(self, pdk):
        clock_net = make_random_clock_net(count=1)
        result, tree = route(pdk, clock_net)
        assert tree.sink_count() == 1
        tree.validate()

    def test_empty_clock_net_rejected(self, pdk, grid_clock_net):
        router = HierarchicalClockRouter(pdk)
        empty = type(grid_clock_net)(
            name="clk", source=grid_clock_net.source, sinks=[]
        )
        with pytest.raises(ValueError):
            router.route_design(empty)

    def test_invalid_cluster_sizes_rejected(self, pdk):
        with pytest.raises(ValueError):
            HierarchicalClockRouter(
                pdk, config=CtsConfig(high_cluster_size=10, low_cluster_size=20)
            )


class TestDegenerateInputs:
    """Failure and near-failure paths: degenerate clusters and geometries."""

    @pytest.mark.parametrize("dme_backend", DME_BACKEND_NAMES)
    def test_single_sink_low_clusters(self, pdk, dme_backend):
        """low_cluster_size=1 makes every tap a single-terminal DME."""
        net = make_random_clock_net(count=24, extent=60.0, seed=11)
        result, tree = route(
            pdk, net, high_cluster_size=8, low_cluster_size=1, dme_backend=dme_backend
        )
        tree.validate()
        assert {n.name for n in tree.sinks()} == {s.name for s in net.sinks}
        for name in result.tap_names:
            assert sum(1 for c in tree.find(name).children if c.is_sink) == 1

    @pytest.mark.parametrize("dme_backend", DME_BACKEND_NAMES)
    def test_all_coincident_sinks(self, pdk, dme_backend):
        """Every merge has distance zero — the degenerate balance branch."""
        sinks = [
            ClockSink(name=f"ff_{i}", location=Point(10.0, 10.0), capacitance=0.8)
            for i in range(12)
        ]
        net = ClockNet(
            name="clk",
            source=ClockSource(name="src", location=Point(0.0, 0.0)),
            sinks=sinks,
        )
        result, tree = route(
            pdk, net, high_cluster_size=8, low_cluster_size=4, dme_backend=dme_backend
        )
        tree.validate()
        assert tree.sink_count() == len(sinks)
        # All merge geometry collapses onto the sink point: the only trunk
        # wire is the root-to-tree edge from the source at (0, 0).
        assert result.trunk_wirelength == pytest.approx(20.0, abs=1e-9)
        for node in tree.nodes():
            if node.kind is not NodeKind.ROOT:
                assert node.location == Point(10.0, 10.0)

    @pytest.mark.parametrize("dme_backend", DME_BACKEND_NAMES)
    def test_single_cluster_single_sink(self, pdk, dme_backend):
        """One high cluster holding one low cluster holding one sink."""
        net = make_random_clock_net(count=1)
        result, tree = route(pdk, net, dme_backend=dme_backend)
        tree.validate()
        assert tree.sink_count() == 1
        assert len(result.tap_names) == 1

    def test_unknown_dme_backend_rejected(self, pdk):
        with pytest.raises(ValueError, match="unknown DME backend"):
            route(pdk, make_random_clock_net(count=4), dme_backend="bogus")


class TestDetourDisabledBalance:
    """detour_allowed=False saturates infeasible balances instead of snaking."""

    @pytest.mark.parametrize("backend", DME_BACKEND_NAMES)
    def test_infeasible_balance_saturates(self, pdk, backend):
        from repro.routing import create_dme_router
        from repro.routing.dme import DmeTerminal

        router = create_dme_router(
            pdk.front_layer, detour_allowed=False, backend=backend
        )
        slow = DmeTerminal("slow", Point(0.0, 0.0), capacitance=1.0, delay=500.0)
        fast = DmeTerminal("fast", Point(10.0, 0.0), capacitance=1.0, delay=0.0)
        tree = router.route([slow, fast])
        for child in tree.children:
            assert child.planned_edge_length <= 10.0 + 1e-9

    @pytest.mark.parametrize("backend", DME_BACKEND_NAMES)
    def test_coincident_infeasible_balance_allocates_nothing(self, pdk, backend):
        from repro.routing import create_dme_router
        from repro.routing.dme import DmeTerminal

        router = create_dme_router(
            pdk.front_layer, detour_allowed=False, backend=backend
        )
        slow = DmeTerminal("slow", Point(3.0, 3.0), capacitance=1.0, delay=500.0)
        fast = DmeTerminal("fast", Point(3.0, 3.0), capacitance=1.0, delay=0.0)
        tree = router.route([slow, fast])
        assert all(c.planned_edge_length == 0.0 for c in tree.children)
        # The unbalanced delay gap survives (nothing could be balanced).
        assert tree.subtree_delay == pytest.approx(500.0)


class TestFlatRouting:
    def test_flat_mode_has_no_taps(self, pdk, grid_clock_net):
        result, tree = route(pdk, grid_clock_net, hierarchical_routing=False)
        assert result.clustering is None
        assert not result.tap_names
        assert tree.sink_count() == grid_clock_net.sink_count
        tree.validate()

    def test_hierarchical_wirelength_competitive_with_flat(self, pdk):
        """The paper's motivation: hierarchy controls wirelength on skewed inputs."""
        clock_net = make_random_clock_net(count=150, extent=150.0, seed=9)
        hier, _ = route(pdk, clock_net, high_cluster_size=80, low_cluster_size=10)
        flat, _ = route(pdk, clock_net, hierarchical_routing=False)
        # The hierarchical tree lumps leaf nets into short star nets and must
        # not blow up wirelength compared to the flat matching DME.
        assert hier.total_wirelength <= flat.total_wirelength * 1.5
