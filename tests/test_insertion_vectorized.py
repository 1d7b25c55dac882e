"""Differential tests: vectorized DP backend vs. the object DP (the spec).

The array-based insertion DP (:mod:`repro.insertion.frontier`) must be
*decision-identical* to the per-candidate object DP: the same selected tree
(topology, node names, buffer and nTSV counts), 1e-9-equal root candidate
Pareto fronts, and identical pruning decisions — nominal and corner-aware,
under both timing engines, across selection strategies, insertion modes, and
pruning configurations (including the dominator-relative resource-diversity
rule both backends implement from one definition).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.insertion import ConcurrentInserter, InsertionMode, prune_per_side
from repro.insertion.candidate import CandidateSolution
from repro.insertion.patterns import P_BUFFER, PATTERNS
from repro.insertion.concurrent import InsertionConfig
from repro.insertion.dp_tree import DpNode, DpTree, build_dp_tree
from repro.insertion.frontier import (
    DP_BACKEND_NAMES,
    CandidateFrontier,
    FrontierStore,
    VectorizedInsertionDp,
    default_dp_backend,
    resolve_dp_backend,
)
from repro.tech import CornerSet
from repro.tech.layers import Side
from tests.conftest import make_random_clock_net, route_tree

TOLERANCE = 1e-9

SIGNOFF = CornerSet.parse("tt,ss,ff,hot,cold")

BACKENDS = ("reference", "vectorized")
ENGINES = ("reference", "vectorized")


FIELDS = (
    "side",
    "cap",
    "max_delay",
    "min_delay",
    "buffers",
    "ntsvs",
    "pattern",
    "choice",
)


def route(pdk, count=110, extent=150.0, seed=9):
    clock_net = make_random_clock_net(count=count, extent=extent, seed=seed)
    return route_tree(pdk, clock_net, high_cluster_size=60, low_cluster_size=8)


def tree_shape(tree) -> list[tuple]:
    """A structural fingerprint: every node with its parent, kind and sides."""
    return sorted(
        (
            node.name,
            node.kind.value,
            node.side.value,
            node.wire_side.value,
            node.parent.name if node.parent is not None else "",
        )
        for node in tree.nodes()
    )


def run_both(
    pdk,
    config_kwargs=None,
    corners=None,
    engine=None,
    count=110,
    seed=9,
    fanout_threshold=None,
):
    """Run the DP with both backends on identical routed trees."""
    results, shapes = {}, {}
    for backend in BACKENDS:
        routed = route(pdk, count=count, seed=seed)
        config = InsertionConfig(dp_backend=backend, **(config_kwargs or {}))
        results[backend] = ConcurrentInserter(
            pdk, config, engine=engine, corners=corners
        ).run(routed, fanout_threshold=fanout_threshold)
        shapes[backend] = tree_shape(routed)
    return results, shapes


def assert_backends_identical(results, shapes):
    """Identical realised trees plus 1e-9-equal root candidate fronts."""
    ref, vec = results["reference"], results["vectorized"]
    assert shapes["reference"] == shapes["vectorized"]
    assert ref.inserted_buffers == vec.inserted_buffers
    assert ref.inserted_ntsvs == vec.inserted_ntsvs
    assert ref.selected.buffer_count == vec.selected.buffer_count
    assert ref.selected.ntsv_count == vec.selected.ntsv_count
    assert ref.selected.max_delay == pytest.approx(
        vec.selected.max_delay, abs=TOLERANCE
    )
    # The root candidate Pareto fronts agree candidate for candidate, in
    # order — pruning and combination ordering are part of the contract.
    assert len(ref.root_candidates) == len(vec.root_candidates)
    for a, b in zip(ref.root_candidates, vec.root_candidates):
        assert a.up_side is b.up_side
        assert a.buffer_count == b.buffer_count
        assert a.ntsv_count == b.ntsv_count
        assert a.capacitance == pytest.approx(b.capacitance, abs=TOLERANCE)
        assert a.max_delay == pytest.approx(b.max_delay, abs=TOLERANCE)
        assert a.min_delay == pytest.approx(b.min_delay, abs=TOLERANCE)
        assert (a.corner_capacitance is None) == (b.corner_capacitance is None)
        if a.corner_capacitance is not None:
            assert a.corner_capacitance == pytest.approx(
                b.corner_capacitance, abs=TOLERANCE
            )
            assert a.corner_max_delay == pytest.approx(
                b.corner_max_delay, abs=TOLERANCE
            )
            assert a.corner_min_delay == pytest.approx(
                b.corner_min_delay, abs=TOLERANCE
            )
    assert ref.timing.skew == pytest.approx(vec.timing.skew, abs=TOLERANCE)
    assert ref.timing.latency == pytest.approx(vec.timing.latency, abs=TOLERANCE)
    if ref.timing_per_corner is not None:
        assert vec.timing_per_corner is not None
        for name in ref.timing_per_corner:
            assert ref.timing_per_corner[name].skew == pytest.approx(
                vec.timing_per_corner[name].skew, abs=TOLERANCE
            ), name


# ----------------------------------------------------------- end-to-end runs
class TestBackendEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_nominal_identical(self, pdk, engine):
        results, shapes = run_both(pdk, engine=engine)
        assert_backends_identical(results, shapes)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_corner_aware_identical(self, pdk, engine):
        results, shapes = run_both(pdk, corners=SIGNOFF, engine=engine)
        assert_backends_identical(results, shapes)

    def test_min_latency_selection_identical(self, pdk):
        results, shapes = run_both(pdk, {"selection": "min_latency"})
        assert_backends_identical(results, shapes)

    def test_intra_side_mode_identical(self, pdk):
        results, shapes = run_both(pdk, {"default_mode": InsertionMode.INTRA_SIDE})
        assert_backends_identical(results, shapes)

    def test_front_only_pdk_identical(self, front_pdk):
        results, shapes = run_both(front_pdk)
        assert_backends_identical(results, shapes)

    def test_fanout_threshold_identical(self, pdk):
        results, shapes = run_both(pdk, fanout_threshold=20)
        assert_backends_identical(results, shapes)

    def test_narrow_beam_identical(self, pdk):
        results, shapes = run_both(pdk, {"max_candidates_per_side": 4}, corners=SIGNOFF)
        assert_backends_identical(results, shapes)

    def test_unsegmented_edges_identical(self, pdk):
        results, shapes = run_both(pdk, {"max_segment_length": None})
        assert_backends_identical(results, shapes)

    @pytest.mark.parametrize("corners", [None, SIGNOFF])
    def test_resource_diversity_identical(self, pdk, corners):
        """The dominator-relative diversity rule: one rule, two backends."""
        results, shapes = run_both(
            pdk, {"keep_resource_diversity": True}, corners=corners
        )
        assert_backends_identical(results, shapes)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_identical_on_random_nets(self, pdk, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(30, 90))
        corners = SIGNOFF if seed % 2 else None
        results, shapes = run_both(pdk, corners=corners, count=count, seed=seed % 1000)
        assert_backends_identical(results, shapes)


# ------------------------------------------------------ pruning sweep parity
def frontier_from_candidates(
    candidates: list[CandidateSolution], corner_count: int
) -> CandidateFrontier:
    """Pack object candidates into a frontier (the test-only direction)."""
    k = max(1, corner_count)
    if corner_count:
        cap = np.asarray([c.corner_capacitance for c in candidates], float).T
        dmax = np.asarray([c.corner_max_delay for c in candidates], float).T
        dmin = np.asarray([c.corner_min_delay for c in candidates], float).T
    else:
        cap = np.asarray([[c.capacitance for c in candidates]], float)
        dmax = np.asarray([[c.max_delay for c in candidates]], float)
        dmin = np.asarray([[c.min_delay for c in candidates]], float)
    assert cap.shape[0] == k
    n = len(candidates)
    return CandidateFrontier(
        side=np.asarray(
            [0 if c.up_side is Side.FRONT else 1 for c in candidates], np.int8
        ),
        cap=cap,
        max_delay=dmax,
        min_delay=dmin,
        buffers=np.asarray([c.buffer_count for c in candidates], np.int64),
        ntsvs=np.asarray([c.ntsv_count for c in candidates], np.int64),
        pattern=np.full(n, -1, np.int16),
        choice=np.arange(n, dtype=np.int64)[:, None],
    )


def random_candidates(rng, n, corner_count=0):
    """Random candidates on a coarse value grid so exact ties are common."""
    candidates = []
    for _ in range(n):
        side = Side.FRONT if rng.random() < 0.7 else Side.BACK
        buffers = int(rng.integers(0, 4))
        ntsvs = int(rng.integers(0, 4))
        if corner_count:
            caps = tuple(float(rng.integers(1, 12)) * 0.5 for _ in range(corner_count))
            dmax = tuple(float(rng.integers(1, 12)) * 2.0 for _ in range(corner_count))
            dmin = tuple(d * 0.5 for d in dmax)
            candidates.append(
                CandidateSolution(
                    up_side=side,
                    capacitance=caps[0],
                    max_delay=dmax[0],
                    min_delay=dmin[0],
                    buffer_count=buffers,
                    ntsv_count=ntsvs,
                    corner_capacitance=caps,
                    corner_max_delay=dmax,
                    corner_min_delay=dmin,
                )
            )
        else:
            candidates.append(
                CandidateSolution(
                    up_side=side,
                    capacitance=float(rng.integers(1, 12)) * 0.5,
                    max_delay=float(rng.integers(1, 12)) * 2.0,
                    min_delay=float(rng.integers(0, 2)),
                    buffer_count=buffers,
                    ntsv_count=ntsvs,
                )
            )
    return candidates


def jittered(candidates, rng):
    """Shift every cap and delay by -6e-10, 0 or +6e-10 (inside the 1e-9
    dominance tolerance), keeping each candidate's corners consistent."""

    def shift(values):
        return tuple(v + float(rng.choice([-6e-10, 0.0, 6e-10])) for v in values)

    out = []
    for c in candidates:
        if c.corner_capacitance is not None:
            caps, delays = shift(c.corner_capacitance), shift(c.corner_max_delay)
            out.append(
                replace(
                    c,
                    capacitance=caps[0],
                    max_delay=delays[0],
                    corner_capacitance=caps,
                    corner_max_delay=delays,
                )
            )
        else:
            (cap,), (delay,) = shift((c.capacitance,)), shift((c.max_delay,))
            out.append(replace(c, capacitance=cap, max_delay=delay))
    return out


class TestPruneSweepParity:
    """frontier._prune implements exactly prune_per_side's rule and order, on
    every segment of one multi-segment call."""

    @pytest.mark.parametrize("corner_count", [0, 5])
    @pytest.mark.parametrize("keep_resource_diversity", [False, True])
    @pytest.mark.parametrize("max_capacitance", [None, 3.0])
    @pytest.mark.parametrize("beam", [1, 2, 6])
    def test_prune_matches_object_rule(
        self, pdk, corner_count, keep_resource_diversity, max_capacitance, beam
    ):
        rng = np.random.default_rng(1234 + corner_count)
        trials = [
            random_candidates(rng, int(rng.integers(1, 40)), corner_count)
            for _ in range(25)
        ]
        config = InsertionConfig(
            keep_resource_diversity=keep_resource_diversity,
            max_candidates_per_side=beam,
        )
        dp = VectorizedInsertionDp(
            pdk,
            config,
            [pdk] * max(1, corner_count),
            corner_aware=bool(corner_count),
        )
        frontier = frontier_from_candidates(
            [c for candidates in trials for c in candidates], corner_count
        )
        seg = np.repeat(np.arange(len(trials)), [len(c) for c in trials])
        kept = dp._prune(frontier, seg, max_capacitance=max_capacitance)
        pruned = frontier.take(kept)
        assert np.all(np.diff(seg[kept]) >= 0), "segments must stay in order"
        for trial, candidates in enumerate(trials):
            expected = prune_per_side(
                candidates,
                max_capacitance=max_capacitance,
                keep_resource_diversity=keep_resource_diversity,
                max_candidates_per_side=beam,
            )
            got = [
                (
                    int(pruned.side[i]),
                    tuple(pruned.cap[:, i]),
                    tuple(pruned.max_delay[:, i]),
                    int(pruned.buffers[i]),
                    int(pruned.ntsvs[i]),
                )
                for i in np.nonzero(seg[kept] == trial)[0]
            ]
            want = [
                (
                    0 if c.up_side is Side.FRONT else 1,
                    tuple(c.corner_capacitance)
                    if corner_count
                    else (c.capacitance,),
                    tuple(c.corner_max_delay) if corner_count else (c.max_delay,),
                    c.buffer_count,
                    c.ntsv_count,
                )
                for c in expected
            ]
            assert got == want, (trial, corner_count, keep_resource_diversity)


    @pytest.mark.parametrize("corner_count", [0, 5])
    @pytest.mark.parametrize("keep_resource_diversity", [False, True])
    def test_near_ties_match_object_rule(
        self, pdk, corner_count, keep_resource_diversity
    ):
        """Values a few 1e-10 apart: dominance holds only within tolerance,
        so the sweeps must fall back to the exact sequential scan."""
        rng = np.random.default_rng(4321 + corner_count)
        trials = [
            jittered(
                random_candidates(rng, int(rng.integers(2, 30)), corner_count), rng
            )
            for _ in range(30)
        ]
        config = InsertionConfig(
            keep_resource_diversity=keep_resource_diversity,
            max_candidates_per_side=None,
        )
        dp = VectorizedInsertionDp(
            pdk, config, [pdk] * max(1, corner_count), corner_aware=bool(corner_count)
        )
        frontier = frontier_from_candidates(
            [c for candidates in trials for c in candidates], corner_count
        )
        seg = np.repeat(np.arange(len(trials)), [len(c) for c in trials])
        kept = dp._prune(frontier, seg)
        for trial, candidates in enumerate(trials):
            expected = prune_per_side(
                candidates, keep_resource_diversity=keep_resource_diversity
            )
            mine = kept[seg[kept] == trial]
            assert [
                (float(frontier.cap[0, i]), float(frontier.max_delay[0, i]))
                for i in mine
            ] == [(c.capacitance, c.max_delay) for c in expected], trial

    @pytest.mark.parametrize(
        "corner_count,keep_resource_diversity", [(0, True), (5, False), (5, True)]
    )
    def test_group_past_pairwise_limit(
        self, pdk, corner_count, keep_resource_diversity
    ):
        """One side block larger than the pairwise tile bound."""
        rng = np.random.default_rng(77 + corner_count)
        candidates = random_candidates(rng, 1300, corner_count)
        config = InsertionConfig(
            keep_resource_diversity=keep_resource_diversity,
            max_candidates_per_side=None,
        )
        dp = VectorizedInsertionDp(
            pdk, config, [pdk] * max(1, corner_count), corner_aware=bool(corner_count)
        )
        frontier = frontier_from_candidates(candidates, corner_count)
        kept = dp._prune(frontier, np.zeros(frontier.size, np.int64))
        expected = prune_per_side(
            candidates, keep_resource_diversity=keep_resource_diversity
        )
        got = [
            (
                int(frontier.side[i]),
                tuple(frontier.cap[:, i]),
                tuple(frontier.max_delay[:, i]),
                int(frontier.buffers[i]),
                int(frontier.ntsvs[i]),
            )
            for i in kept
        ]
        want = [
            (
                0 if c.up_side is Side.FRONT else 1,
                tuple(c.corner_capacitance) if corner_count else (c.capacitance,),
                tuple(c.corner_max_delay) if corner_count else (c.max_delay,),
                c.buffer_count,
                c.ntsv_count,
            )
            for c in expected
        ]
        assert got == want


# ------------------------------------------- level-pass paths no design hits
def hand_node(index, preds=(), *, direct=True, base_cap=2.0, base_max=5.0):
    """A DP node built by hand (no clock tree behind it)."""
    return DpNode(
        index=index,
        tree_child=None,
        length=40.0,
        predecessors=list(preds),
        base_capacitance=base_cap,
        base_max_delay=base_max,
        base_min_delay=base_max / 2.0,
        tree_row=index,
        direct_sinks=direct,
    )


def candidate_rows(candidates) -> list[tuple]:
    return [
        (
            0 if c.up_side is Side.FRONT else 1,
            c.capacitance,
            c.max_delay,
            c.min_delay,
            c.buffer_count,
            c.ntsv_count,
            c.pattern.name if c.pattern is not None else None,
        )
        for c in candidates
    ]


def frontier_rows(frontier) -> list[tuple]:
    return [
        (
            int(frontier.side[i]),
            float(frontier.cap[0, i]),
            float(frontier.max_delay[0, i]),
            float(frontier.min_delay[0, i]),
            int(frontier.buffers[i]),
            int(frontier.ntsvs[i]),
            PATTERNS[frontier.pattern[i]].name if frontier.pattern[i] >= 0 else None,
        )
        for i in range(frontier.size)
    ]


def one_side(side, count=2):
    return [
        CandidateSolution(
            up_side=side, capacitance=1.0 + i, max_delay=10.0 - i, min_delay=1.0
        )
        for i in range(count)
    ]


class TestLevelPassEdgeCases:
    @pytest.mark.parametrize("root_direct", [False, True])
    def test_relaxed_path_matches_reference(self, pdk, root_direct):
        """A leaf no buffer can legalise keeps its unchecked candidates; the
        root above it optionally drives sinks of its own as well."""
        overloaded = hand_node(0, base_cap=pdk.max_capacitance * 3.0, base_max=50.0)
        normal = hand_node(1)
        base = 2.0 if root_direct else 0.0
        root = hand_node(
            2, (overloaded, normal), direct=root_direct, base_cap=base, base_max=base
        )
        dp_tree = DpTree(
            nodes=[overloaded, normal, root], root_nodes=[root], clock_tree=None
        )
        store, _root = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk]).run(dp_tree)
        reference = ConcurrentInserter(pdk, InsertionConfig(dp_backend="reference"))
        expected = reference._bottom_up(dp_tree)
        for node in dp_tree.nodes:
            assert frontier_rows(store[node.index]) == candidate_rows(
                expected[node.index]
            ), node.index
        # P1 drives more than the maximum load: only the relaxed pass keeps it.
        assert PATTERNS.index(P_BUFFER) in store[overloaded.index].pattern.tolist()

    @pytest.mark.parametrize(
        "sides,direct,message",
        [
            (
                (Side.FRONT, Side.BACK),
                False,
                "DP node dp[@2]: predecessors have no side-compatible candidate "
                "combination",
            ),
            (
                (Side.BACK, Side.BACK),
                True,
                "DP node dp[@2]: no merged candidate satisfies the front-side "
                "leaf-net constraint",
            ),
        ],
    )
    def test_merge_errors_match_reference(self, pdk, sides, direct, message):
        preds = [hand_node(i) for i in range(2)]
        node = hand_node(2, preds, direct=direct)
        pred_candidates = {i: one_side(side) for i, side in enumerate(sides)}
        store = FrontierStore()
        for index, candidates in pred_candidates.items():
            store.add(index, frontier_from_candidates(candidates, 0))
        dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
        with pytest.raises(RuntimeError) as vectorized:
            dp._run_levels([node], store)
        with pytest.raises(RuntimeError) as reference:
            ConcurrentInserter(pdk)._merge(node, pred_candidates)
        assert str(vectorized.value) == str(reference.value) == message

    def test_two_worker_subtree_run_equals_serial(self, pdk):
        routed = route(pdk, count=300, extent=600.0, seed=5)
        dp_tree = build_dp_tree(routed, pdk)
        serial_store, serial_root = VectorizedInsertionDp(
            pdk, InsertionConfig(), [pdk]
        ).run(dp_tree)
        dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
        store, root = dp.run(dp_tree, workers=2)
        assert dp.parallel_tasks >= 2, "no subtree was shipped"
        assert set(store) == set(serial_store)
        for index in serial_store:
            for name in FIELDS:
                a = getattr(serial_store[index], name)
                b = getattr(store[index], name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (index, name)
        for name in FIELDS:
            assert np.array_equal(getattr(serial_root, name), getattr(root, name))


# -------------------------------------------------------- backend resolution
class TestBackendSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_BACKEND", raising=False)
        assert default_dp_backend() == "vectorized"
        assert resolve_dp_backend(None) == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_BACKEND", "reference")
        assert resolve_dp_backend(None) == "reference"
        # An explicit choice beats the environment.
        assert resolve_dp_backend("vectorized") == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown DP backend"):
            resolve_dp_backend("bogus")
        with pytest.raises(ValueError, match="unknown DP backend"):
            InsertionConfig(dp_backend="bogus")

    def test_inserter_resolves_config_and_argument(self, pdk, monkeypatch):
        monkeypatch.delenv("REPRO_DP_BACKEND", raising=False)
        assert ConcurrentInserter(pdk).dp_backend == "vectorized"
        config = InsertionConfig(dp_backend="reference")
        assert ConcurrentInserter(pdk, config).dp_backend == "reference"
        # The explicit constructor argument wins over the config.
        assert (
            ConcurrentInserter(pdk, config, dp_backend="vectorized").dp_backend
            == "vectorized"
        )
        monkeypatch.setenv("REPRO_DP_BACKEND", "reference")
        assert ConcurrentInserter(pdk).dp_backend == "reference"

    def test_backend_names_exported(self):
        assert DP_BACKEND_NAMES == ("reference", "vectorized")

    def test_cts_config_carries_dp_backend(self):
        from repro.flow import BackendSelection, CtsConfig

        config = CtsConfig(backends=BackendSelection(dp="reference"))
        assert config.resolved_backends().dp == "reference"
