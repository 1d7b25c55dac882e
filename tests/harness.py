"""Reusable differential-construction harness.

The library's construction pipeline is built from two-engine subsystems —
DME routing backends, insertion-DP backends, timing engines — whose array
("vectorized") implementations must be *decision-identical* to their scalar
executable specs.  This module is the shared machinery for proving that:

* :func:`backend_matrix` — the {dme, dp, timing} backend cross-product as
  parameterizable kwarg dicts (any subset of axes), so one test can sweep
  every combination of engines through an identical flow,
* :data:`SEEDED_DESIGNS` / :func:`terminals_strategy` — seeded and
  hypothesis-generated design inputs shared by the differential suites,
* :func:`run_flow` / :func:`route_embedding` — run the full CTS flow (or a
  single DME embedding) under an explicit backend combination,
* :func:`assert_matches_reference_spec` — the flow under one combination
  against the all-reference executable spec, bit for bit,
* :func:`assert_embeddings_identical` / :func:`clock_tree_fingerprint` /
  :func:`assert_clock_trees_identical` — structural-identity assertions
  (node-for-node names, parents, kinds, sides, and coordinates).

``tests/test_routing_dme_vectorized.py`` is the first client; new two-engine
subsystems should parameterize over this harness instead of hand-rolling
their own cross-product plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from hypothesis import strategies as st

from repro.clocktree import ClockTree
from repro.evaluation.metrics import evaluate_tree
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
from repro.flow.cts import CtsRunResult
from repro.geometry import Point
from repro.netlist.clock import ClockNet
from repro.routing import DmeTerminal, EmbeddedNode, create_dme_router
from repro.routing.dme_arrays import VectorizedDmeRouter
from repro.tech.layers import LayerRC
from tests.conftest import make_random_clock_net

#: The two-engine axes and their backend names (all two-engine subsystems
#: share the same pair of names by convention).
BACKEND_AXES: dict[str, tuple[str, ...]] = {
    "dme": ("reference", "vectorized"),
    "dp": ("reference", "vectorized"),
    "timing": ("reference", "vectorized"),
}

def backend_matrix(axes: tuple[str, ...] = ("dme", "dp", "timing")) -> list[dict]:
    """Every backend combination over ``axes`` as BackendSelection kwargs.

    ``backend_matrix(("dme",))`` yields two single-key dicts; the full
    three-axis product yields eight.  Use with ``pytest.mark.parametrize``
    plus :func:`backend_id` for readable test ids; :func:`run_flow` feeds
    the dict straight into :class:`~repro.flow.BackendSelection`.
    """
    unknown = set(axes) - set(BACKEND_AXES)
    if unknown:
        raise ValueError(f"unknown backend axes {sorted(unknown)}")
    return [
        dict(zip(axes, combo))
        for combo in product(*(BACKEND_AXES[axis] for axis in axes))
    ]


def backend_id(combo: dict) -> str:
    """A compact test id like ``dme=reference-dp=vectorized``."""
    return "-".join(f"{axis}={name}" for axis, name in combo.items())


# ------------------------------------------------------------------ designs
@dataclass(frozen=True)
class SeededDesign:
    """A reproducible random clock net used by the differential suites."""

    count: int
    extent: float
    seed: int

    @property
    def id(self) -> str:
        return f"n{self.count}-seed{self.seed}"

    def clock_net(self) -> ClockNet:
        return make_random_clock_net(
            count=self.count, extent=self.extent, seed=self.seed
        )


#: Small / medium / larger sink clouds; every differential suite runs all.
SEEDED_DESIGNS: tuple[SeededDesign, ...] = (
    SeededDesign(count=13, extent=40.0, seed=1),
    SeededDesign(count=60, extent=150.0, seed=2),
    SeededDesign(count=140, extent=320.0, seed=3),
)


def dme_terminals(clock_net: ClockNet) -> list[DmeTerminal]:
    """The flat DME terminal list of a clock net (one leaf per sink)."""
    return [
        DmeTerminal(name=s.name, location=s.location, capacitance=s.capacitance)
        for s in clock_net.sinks
    ]


#: Coordinates on a quarter-um grid: coarse enough that hypothesis finds
#: co-located terminals and exact distance ties (the DME degenerate paths).
_coordinate = st.integers(min_value=0, max_value=240).map(lambda v: v / 4.0)

#: Mostly-zero subtree delays with a few large outliers that force detours.
_delay = st.sampled_from([0.0, 0.0, 0.0, 0.0, 80.0, 640.0])

_capacitance = st.integers(min_value=1, max_value=32).map(lambda v: v / 4.0)


@st.composite
def terminals_strategy(draw, min_size: int = 2, max_size: int = 28):
    """Hypothesis strategy for DME terminal lists (ties and detours likely)."""
    raw = draw(
        st.lists(
            st.tuples(_coordinate, _coordinate, _capacitance, _delay),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return [
        DmeTerminal(name=f"t{i}", location=Point(x, y), capacitance=cap, delay=delay)
        for i, (x, y, cap, delay) in enumerate(raw)
    ]


# --------------------------------------------------------------------- runs
def route_embedding(
    layer: LayerRC,
    terminals: list[DmeTerminal],
    backend: str,
    root_location: Point | None = None,
    topology=None,
    detour_allowed: bool = True,
    min_batch: int | None = None,
) -> EmbeddedNode:
    """One DME embedding under an explicit backend choice.

    ``min_batch`` (vectorized backend only) forces every level through the
    numpy path when set to 1; ``None`` keeps the backend's default hybrid.
    """
    router = create_dme_router(layer, detour_allowed=detour_allowed, backend=backend)
    if min_batch is not None and isinstance(router, VectorizedDmeRouter):
        router.min_batch = min_batch
    return router.route(terminals, root_location=root_location, topology=topology)


def run_flow(
    pdk,
    clock_net: ClockNet,
    combo: dict | None = None,
    corners=None,
    **config_kwargs,
) -> CtsRunResult:
    """Run the double-side CTS flow under one backend combination.

    ``combo`` is an axis dict from :func:`backend_matrix`.  Cluster sizes
    are scaled down so the harness stays fast on unit-test nets.
    """
    config = CtsConfig(
        high_cluster_size=40,
        low_cluster_size=6,
        seed=7,
        corners=corners,
        backends=BackendSelection(**(combo or {})),
        **config_kwargs,
    )
    return DoubleSideCTS(pdk, config).run(clock_net)


#: The executable spec: every two-engine axis on its reference backend.
ALL_REFERENCE = {axis: "reference" for axis in BACKEND_AXES}


def assert_matches_reference_spec(
    pdk,
    clock_net: ClockNet,
    combo: dict | None = None,
    corners=None,
    **config_kwargs,
) -> tuple[CtsRunResult, CtsRunResult]:
    """The flow under ``combo`` must be decision-identical to the spec.

    Runs the same flow under ``combo`` and under :data:`ALL_REFERENCE` and
    asserts bit-equal tree fingerprints and resource counts.  The timing
    columns must equal the spec's design timed by ``combo``'s own timing
    engine, bit for bit (the two timing engines agree to 1e-9, which
    ``tests/test_timing_vectorized.py`` pins, not to the last bit).
    Returns ``(result, spec)`` for further checks.
    """
    result = run_flow(pdk, clock_net, combo, corners=corners, **config_kwargs)
    spec = run_flow(pdk, clock_net, ALL_REFERENCE, corners=corners, **config_kwargs)
    assert_clock_trees_identical(spec.tree, result.tree)
    assert spec.metrics.buffers == result.metrics.buffers
    assert spec.metrics.ntsvs == result.metrics.ntsvs
    assert spec.metrics.sinks == result.metrics.sinks
    selection = BackendSelection(**(combo or {}))
    timing = CtsConfig(backends=selection).resolved_backends().timing
    timed = evaluate_tree(spec.design, pdk, engine=timing, corners=corners)
    assert timed.latency == result.metrics.latency
    assert timed.skew == result.metrics.skew
    assert timed.corner_skews == result.metrics.corner_skews
    assert timed.corner_latencies == result.metrics.corner_latencies
    return result, spec


# ------------------------------------------------------------------ asserts
def _assert_float_equal(a: float, b: float, tol: float, what: str) -> None:
    if tol == 0.0:
        assert a == b, f"{what}: {a!r} != {b!r}"
    else:
        assert abs(a - b) <= tol, f"{what}: |{a!r} - {b!r}| > {tol}"


def assert_embeddings_identical(
    a: EmbeddedNode, b: EmbeddedNode, coord_tol: float = 0.0
) -> None:
    """Node-for-node identity of two embedded DME trees (iterative walk).

    With the default ``coord_tol=0.0`` every coordinate, planned edge
    length, and subtree cap/delay must be *bit-equal* — the decision-identity
    contract between the scalar and the array DME backends.
    """
    stack = [(a, b, "root")]
    while stack:
        na, nb, path = stack.pop()
        assert na.is_leaf == nb.is_leaf, f"{path}: leaf/internal mismatch"
        if na.is_leaf:
            assert na.terminal.name == nb.terminal.name, f"{path}: terminal name"
        _assert_float_equal(na.location.x, nb.location.x, coord_tol, f"{path}.x")
        _assert_float_equal(na.location.y, nb.location.y, coord_tol, f"{path}.y")
        _assert_float_equal(
            na.planned_edge_length,
            nb.planned_edge_length,
            coord_tol,
            f"{path}.planned_edge_length",
        )
        _assert_float_equal(
            na.subtree_capacitance,
            nb.subtree_capacitance,
            coord_tol,
            f"{path}.subtree_capacitance",
        )
        _assert_float_equal(
            na.subtree_delay, nb.subtree_delay, coord_tol, f"{path}.subtree_delay"
        )
        assert len(na.children) == len(nb.children), f"{path}: child count"
        for index, (ca, cb) in enumerate(zip(na.children, nb.children)):
            stack.append((ca, cb, f"{path}/{index}"))


def clock_tree_fingerprint(tree: ClockTree) -> list[tuple]:
    """Structural fingerprint: name, kind, sides, parent, and coordinates."""
    return sorted(
        (
            node.name,
            node.kind.value,
            node.side.value,
            node.wire_side.value,
            node.parent.name if node.parent is not None else "",
            node.location.x,
            node.location.y,
        )
        for node in tree.nodes()
    )


def assert_clock_trees_identical(a: ClockTree, b: ClockTree) -> None:
    """Identical realised clock trees, node names through coordinates."""
    fa, fb = clock_tree_fingerprint(a), clock_tree_fingerprint(b)
    assert len(fa) == len(fb), f"node counts differ: {len(fa)} != {len(fb)}"
    for row_a, row_b in zip(fa, fb):
        assert row_a == row_b
