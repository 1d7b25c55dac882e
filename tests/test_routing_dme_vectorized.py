"""Differential tests: vectorized DME backend vs. the scalar router (the spec).

The level-batched array router (:mod:`repro.routing.dme_arrays`) must be
*decision-identical* to the per-node scalar :class:`DmeRouter`: node-for-node
identical embedded trees (terminal names, children order, coordinates,
planned edge lengths, subtree cap/delay — all bit-equal, so the embedded
wirelength is bit-equal too), on seeded and hypothesis-generated designs,
with and without detours, on matching / bisection / degenerate chain
topologies, and through the hierarchical router and the full flow.

First client of the differential-construction harness (``tests/harness.py``):
the flow cross-product test sweeps every {dme, dp, timing} backend
combination through an identical run and asserts structural identity.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import BackendSelection, CtsConfig
from repro.geometry import Point
from repro.routing import (
    DME_BACKEND_NAMES,
    DmeRouter,
    DmeTerminal,
    EmbeddedNode,
    HierarchicalClockRouter,
    VectorizedDmeRouter,
    create_dme_router,
    default_dme_backend,
    resolve_dme_backend,
)
from repro.routing.topology import (
    TopologyNode,
    balanced_bipartition_topology,
    matching_topology,
)
from tests.conftest import make_random_clock_net
from tests.harness import (
    SEEDED_DESIGNS,
    assert_clock_trees_identical,
    assert_embeddings_identical,
    backend_id,
    backend_matrix,
    clock_tree_fingerprint,
    dme_terminals,
    route_embedding,
    run_flow,
    terminals_strategy,
)

MIN_BATCHES = (1, None)  # force-all-numpy and the default hybrid


def chain_topology(points):
    """A maximally unbalanced (caterpillar) topology over ``points``."""
    chain = TopologyNode(terminal_index=0, location_hint=points[0])
    for index in range(1, len(points)):
        leaf = TopologyNode(terminal_index=index, location_hint=points[index])
        chain = TopologyNode(children=[chain, leaf], location_hint=points[index])
    return chain


def assert_backends_identical(layer, terminals, **route_kwargs):
    """Route with both backends (both batching modes) and assert identity."""
    reference = route_embedding(layer, terminals, "reference", **route_kwargs)
    for min_batch in MIN_BATCHES:
        vectorized = route_embedding(
            layer, terminals, "vectorized", min_batch=min_batch, **route_kwargs
        )
        assert_embeddings_identical(reference, vectorized)
        assert reference.wirelength() == vectorized.wirelength()
    return reference


# ------------------------------------------------------------ DME identity
class TestDmeDecisionIdentity:
    @pytest.mark.parametrize("design", SEEDED_DESIGNS, ids=lambda d: d.id)
    def test_seeded_designs_identical(self, pdk, design):
        net = design.clock_net()
        assert_backends_identical(
            pdk.front_layer, dme_terminals(net), root_location=net.source.location
        )

    def test_identical_without_root_location(self, pdk):
        net = SEEDED_DESIGNS[1].clock_net()
        assert_backends_identical(pdk.front_layer, dme_terminals(net))

    def test_identical_with_detour_disabled(self, pdk):
        net = SEEDED_DESIGNS[1].clock_net()
        terminals = dme_terminals(net)
        # Unbalanced subtree delays make saturated (detour-less) splits common.
        terminals[::3] = [
            DmeTerminal(t.name, t.location, t.capacitance, delay=500.0)
            for t in terminals[::3]
        ]
        assert_backends_identical(
            pdk.front_layer,
            terminals,
            root_location=net.source.location,
            detour_allowed=False,
        )

    def test_identical_on_bisection_topology(self, pdk):
        net = SEEDED_DESIGNS[2].clock_net()
        terminals = dme_terminals(net)
        topology = balanced_bipartition_topology([t.location for t in terminals])
        assert_backends_identical(
            pdk.front_layer,
            terminals,
            root_location=net.source.location,
            topology=topology,
        )

    def test_identical_on_chain_topology(self, pdk):
        """Degenerate chains exercise the per-level scalar fallback."""
        points = [Point(float(i % 17), float(i % 5)) for i in range(160)]
        terminals = [
            DmeTerminal(f"t{i}", p, capacitance=1.0 + (i % 3) * 0.5)
            for i, p in enumerate(points)
        ]
        assert_backends_identical(
            pdk.front_layer,
            terminals,
            root_location=Point(0.0, 0.0),
            topology=chain_topology(points),
        )

    def test_identical_with_coincident_and_delayed_terminals(self, pdk):
        """Co-located terminals with delay gaps hit every detour branch."""
        terminals = [
            DmeTerminal("slow0", Point(5.0, 5.0), 1.0, delay=700.0),
            DmeTerminal("fast0", Point(5.0, 5.0), 2.0, delay=0.0),
            DmeTerminal("tied0", Point(9.0, 5.0), 1.0, delay=0.0),
            DmeTerminal("tied1", Point(9.0, 5.0), 1.5, delay=0.0),
            DmeTerminal("slow1", Point(1.0, 9.0), 0.5, delay=1200.0),
            DmeTerminal("far", Point(40.0, 40.0), 1.0),
        ]
        for detour_allowed in (True, False):
            assert_backends_identical(
                pdk.front_layer,
                terminals,
                root_location=Point(0.0, 0.0),
                detour_allowed=detour_allowed,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        terminals=terminals_strategy(),
        detour_allowed=st.booleans(),
        rooted=st.booleans(),
    )
    def test_property_identical_on_random_inputs(
        self, pdk, terminals, detour_allowed, rooted
    ):
        root_location = Point(30.0, 0.0) if rooted else None
        assert_backends_identical(
            pdk.front_layer,
            terminals,
            root_location=root_location,
            detour_allowed=detour_allowed,
        )

    def test_single_terminal_parity(self, pdk):
        term = DmeTerminal("t0", Point(5.0, 5.0), 2.0, delay=3.0)
        for backend in DME_BACKEND_NAMES:
            tree = route_embedding(pdk.front_layer, [term], backend)
            assert tree.is_leaf
            assert tree.location == Point(5.0, 5.0)
            assert tree.subtree_capacitance == 2.0
            assert tree.subtree_delay == 3.0

    def test_empty_terminals_rejected_by_both(self, pdk):
        for backend in DME_BACKEND_NAMES:
            with pytest.raises(ValueError, match="at least one terminal"):
                route_embedding(pdk.front_layer, [], backend)

    def test_non_binary_topology_rejected_by_both(self, pdk):
        leaves = [
            TopologyNode(terminal_index=i, location_hint=Point(float(i), 0.0))
            for i in range(3)
        ]
        topology = TopologyNode(children=leaves, location_hint=Point(1.0, 0.0))
        terminals = [DmeTerminal(f"t{i}", Point(float(i), 0.0)) for i in range(3)]
        for backend in DME_BACKEND_NAMES:
            router = create_dme_router(pdk.front_layer, backend=backend)
            with pytest.raises(ValueError, match="binary"):
                router.route(terminals, topology=topology)

    def test_deep_chain_routes_without_recursion(self, pdk):
        """The 5k-terminal caterpillar from the scalar regression suite."""
        count = 5000
        points = [Point(float(i), 0.0) for i in range(count)]
        terminals = [DmeTerminal(f"t{i}", p) for i, p in enumerate(points)]
        assert count > sys.getrecursionlimit()
        tree = VectorizedDmeRouter(pdk.front_layer).route(
            terminals, root_location=Point(0.0, 0.0), topology=chain_topology(points)
        )
        leaves = tree.leaves()
        assert len(leaves) == count
        assert tree.wirelength() >= count - 1 - 1e-6


# ------------------------------------------------- hierarchical + full flow
class TestHierarchicalDmeBackends:
    def test_hierarchical_routing_identical(self, pdk):
        net = make_random_clock_net(count=150, extent=200.0, seed=5)
        results = {}
        for backend in DME_BACKEND_NAMES:
            config = CtsConfig(
                high_cluster_size=60,
                low_cluster_size=8,
                backends=BackendSelection(dme=backend),
            )
            router = HierarchicalClockRouter(pdk, config=config)
            results[backend] = router.route_design(net)
        reference, vectorized = results["reference"], results["vectorized"]
        assert_clock_trees_identical(
            reference.design.to_clock_tree(), vectorized.design.to_clock_tree()
        )
        assert reference.trunk_wirelength == vectorized.trunk_wirelength
        assert reference.leaf_wirelength == vectorized.leaf_wirelength

    def test_flat_routing_identical(self, pdk):
        net = make_random_clock_net(count=90, extent=120.0, seed=6)
        trees = []
        for backend in DME_BACKEND_NAMES:
            config = CtsConfig(
                hierarchical_routing=False, backends=BackendSelection(dme=backend)
            )
            trees.append(HierarchicalClockRouter(pdk, config=config).route_design(net))
        assert_clock_trees_identical(
            trees[0].design.to_clock_tree(), trees[1].design.to_clock_tree()
        )
        assert trees[0].trunk_wirelength == trees[1].trunk_wirelength


class TestFlowBackendCrossProduct:
    """The harness cross-product: every {dme, dp, timing} combination must
    realise the same clock tree as the all-reference run."""

    @pytest.fixture(scope="class")
    def flow_net(self):
        return make_random_clock_net(count=70, extent=120.0, seed=4)

    @pytest.fixture(scope="class")
    def reference_fingerprint(self, pdk, flow_net):
        combo = {
            "dme": "reference",
            "dp": "reference",
            "timing": "reference",
        }
        return clock_tree_fingerprint(run_flow(pdk, flow_net, combo).tree)

    @pytest.mark.parametrize("combo", backend_matrix(), ids=backend_id)
    def test_flow_identical_across_backends(
        self, pdk, flow_net, reference_fingerprint, combo
    ):
        result = run_flow(pdk, flow_net, combo)
        assert clock_tree_fingerprint(result.tree) == reference_fingerprint


# -------------------------------------------------------- backend selection
class TestDmeBackendSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_DME_BACKEND", raising=False)
        assert default_dme_backend() == "vectorized"
        assert resolve_dme_backend(None) == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DME_BACKEND", "reference")
        assert resolve_dme_backend(None) == "reference"
        # An explicit choice beats the environment.
        assert resolve_dme_backend("vectorized") == "vectorized"

    def test_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_DME_BACKEND", "")
        assert resolve_dme_backend(None) == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown DME backend"):
            resolve_dme_backend("bogus")

    def test_factory_builds_the_requested_router(self, pdk, monkeypatch):
        monkeypatch.delenv("REPRO_DME_BACKEND", raising=False)
        layer = pdk.front_layer
        assert isinstance(create_dme_router(layer), VectorizedDmeRouter)
        assert isinstance(create_dme_router(layer, backend="reference"), DmeRouter)
        router = create_dme_router(layer, detour_allowed=False)
        assert router.detour_allowed is False
        monkeypatch.setenv("REPRO_DME_BACKEND", "reference")
        assert isinstance(create_dme_router(layer), DmeRouter)

    def test_hierarchical_router_resolves_backend(self, pdk, monkeypatch):
        monkeypatch.delenv("REPRO_DME_BACKEND", raising=False)
        assert HierarchicalClockRouter(pdk).dme_backend == "vectorized"
        config = CtsConfig(backends=BackendSelection(dme="reference"))
        assert HierarchicalClockRouter(pdk, config=config).dme_backend == "reference"
        monkeypatch.setenv("REPRO_DME_BACKEND", "reference")
        assert HierarchicalClockRouter(pdk).dme_backend == "reference"

    def test_cts_config_carries_dme_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_DME_BACKEND", raising=False)
        assert CtsConfig().backends is None
        assert CtsConfig().resolved_backends().dme == "vectorized"
        config = CtsConfig(backends=BackendSelection(dme="reference"))
        assert config.resolved_backends().dme == "reference"

    def test_cli_flag_parses_and_feeds_config(self):
        from repro.cli import _config_for, build_parser

        args = build_parser().parse_args(["run", "C4", "--dme-backend", "reference"])
        assert args.dme_backend == "reference"
        # The CLI feeds the consolidated selection; assert through the one
        # resolution path.
        assert _config_for(args).resolved_backends().dme == "reference"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "C4", "--dme-backend", "bogus"])


# ----------------------------------------------------- EmbeddedNode.leaves
class TestEmbeddedNodeTraversals:
    """Direct unit tests for the iterative EmbeddedNode traversals."""

    @staticmethod
    def build_chain(depth: int) -> EmbeddedNode:
        leaf_terminal = DmeTerminal("leaf", Point(0.0, 0.0))
        node = EmbeddedNode(location=Point(0.0, 0.0), terminal=leaf_terminal)
        for index in range(depth):
            parent = EmbeddedNode(location=Point(float(index + 1), 0.0))
            parent.children.append(node)
            node = parent
        return node

    def test_leaves_left_to_right_order(self, pdk):
        net = SEEDED_DESIGNS[0].clock_net()
        tree = DmeRouter(pdk.front_layer).route(
            dme_terminals(net), root_location=net.source.location
        )
        names = [leaf.terminal.name for leaf in tree.leaves()]
        assert sorted(names) == sorted(s.name for s in net.sinks)

        # Left-to-right means a preorder walk meets the leaves in this order.
        expected = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                expected.append(node.terminal.name)
            else:
                stack.extend(reversed(node.children))
        assert names == expected

    def test_leaves_and_wirelength_iterative_on_deep_chain(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        root = self.build_chain(depth)
        leaves = root.leaves()
        assert len(leaves) == 1
        assert leaves[0].terminal.name == "leaf"
        assert root.wirelength() == pytest.approx(float(depth))
