"""The IR flow is decision-identical to the all-reference executable spec.

The tentpole contract of :mod:`repro.ir`: threading one persistent
:class:`~repro.ir.DesignArrays` through routing -> insertion -> refinement ->
evaluation must produce *bit-equal* tree fingerprints and equal
decision-derived metrics versus the all-reference spec (every stage bridged
through the object-tree reference backends), across the whole
{dme, dp, timing} backend matrix.  These tests ride the shared differential
harness (:func:`tests.harness.assert_matches_reference_spec`).
"""

from __future__ import annotations

import warnings

import pytest

from repro.flow import BackendSelection, CtsConfig, SingleSideCTS
from repro.ir import DesignArrays
from repro.routing import DesignRoutingResult
from tests.harness import (
    ALL_REFERENCE,
    SEEDED_DESIGNS,
    assert_clock_trees_identical,
    assert_matches_reference_spec,
    backend_id,
    backend_matrix,
    run_flow,
)

MEDIUM = SEEDED_DESIGNS[1]


@pytest.mark.parametrize("combo", backend_matrix(), ids=backend_id)
def test_ir_matches_spec_across_backend_matrix(pdk, combo):
    """All 8 {dme, dp, timing} combos: IR flow == all-reference spec."""
    assert_matches_reference_spec(pdk, MEDIUM.clock_net(), combo)


@pytest.mark.parametrize("design", SEEDED_DESIGNS, ids=lambda d: d.id)
def test_ir_matches_spec_across_designs(pdk, design):
    """Default (all-vectorized) backends on every seeded design size."""
    assert_matches_reference_spec(pdk, design.clock_net())


def test_ir_matches_spec_with_corners(pdk):
    """Corner-aware construction + multi-corner sign-off."""
    result, spec = assert_matches_reference_spec(
        pdk,
        MEDIUM.clock_net(),
        corners="tt,ss,ff",
        corner_aware_construction=True,
    )
    assert result.metrics.corner_skews  # the corner columns actually populated
    assert set(spec.metrics.corner_skews) == set(result.metrics.corner_skews)


def test_ir_matches_spec_without_refinement(pdk):
    """The optional refinement stage off: pipeline skips RefinementStage."""
    result, spec = assert_matches_reference_spec(
        pdk, MEDIUM.clock_net(), enable_skew_refinement=False
    )
    assert result.skew_report is None and spec.skew_report is None


def test_ir_result_realises_tree_lazily(pdk):
    """Runs carry the design; the object tree materialises on demand."""
    result = run_flow(pdk, SEEDED_DESIGNS[0].clock_net())
    assert result.design is not None
    assert result._tree is None  # nothing realised inside the timed flow
    first = result.tree
    assert result._tree is first  # cached
    assert result.tree is first
    assert_clock_trees_identical(first, result.design.to_clock_tree())


def test_spec_result_carries_the_design(pdk):
    """Every run carries its design, the all-reference spec run included."""
    result = run_flow(pdk, SEEDED_DESIGNS[0].clock_net(), ALL_REFERENCE)
    assert isinstance(result.design, DesignArrays)
    assert isinstance(result.routing, DesignRoutingResult)
    result.design.validate()
    assert_clock_trees_identical(result.tree, result.design.to_clock_tree())


def test_flow_emits_no_deprecation_warning(pdk):
    """No deprecated surface is left on the flow's own path."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_flow(pdk, SEEDED_DESIGNS[0].clock_net())
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_single_side_ir_matches_spec(front_pdk):
    """The inherited single-side flow rides the same stage pipeline."""
    net = SEEDED_DESIGNS[0].clock_net()
    results = {}
    for label, combo in (("default", {}), ("spec", ALL_REFERENCE)):
        config = CtsConfig(
            high_cluster_size=40,
            low_cluster_size=6,
            seed=7,
            backends=BackendSelection(**combo),
        )
        results[label] = SingleSideCTS(front_pdk, config).run(net)
    assert_clock_trees_identical(results["spec"].tree, results["default"].tree)
    assert results["default"].metrics.ntsvs == 0
    assert results["spec"].metrics.skew == results["default"].metrics.skew


def test_ir_design_validates_and_counts_match_metrics(pdk):
    result = run_flow(pdk, MEDIUM.clock_net())
    result.design.validate()
    _nodes, sinks, buffers, ntsvs = result.design.counts()
    assert sinks == result.metrics.sinks
    assert buffers == result.metrics.buffers
    assert ntsvs == result.metrics.ntsvs
