"""Tests of the benchmark's own code (run with the tier-1 suite).

Run alone with::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
import workloads
from percentiles import percentile
from repro.designs import load_design
from repro.guard.validation import design_cache_key
from repro.serve import apply_edit, build_session
from repro.tech.pdk import asap7_backside
from spans import END, START, Tracer, root_time, summarize

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ------------------------------------------------------------------ spans
def test_self_time_of_synthetic_nested_call():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7];
    # d [11, 12] is a second root.
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
        ["d", 11.0, 12.0, -1, 4],
    ]
    summary = summarize(spans)
    assert summary["a"] == {"total": 10.0, "self": 5.0, "calls": 1}
    assert summary["b"] == {"total": 5.0, "self": 4.0, "calls": 2}
    assert summary["c"] == {"total": 1.0, "self": 1.0, "calls": 1}
    assert sum(entry["self"] for entry in summary.values()) == root_time(spans)


def test_recursive_span_total_counts_outermost_only():
    spans = [["f", 0.0, 4.0, -1, 0], ["f", 1.0, 3.0, 0, 0]]
    assert summarize(spans)["f"] == {"total": 4.0, "self": 4.0, "calls": 2}


def test_wrapped_calls_record_parents_and_request_ids():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = tracer.wrap(outer, "outer")
    assert wrapped_outer() == 2
    assert wrapped_outer() == 2
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [
        ("outer", -1, 0),
        ("inner", 0, 0),
        ("inner", 0, 0),
        ("outer", -1, 3),
        ("inner", 3, 3),
        ("inner", 3, 3),
    ]
    assert all(s[END] >= s[START] for s in tracer.spans)


# ---------------------------------------------------------- patch/restore
def test_layers_patch_every_import_site_and_restore():
    import repro.dse.explorer as explorer
    import repro.evaluation.metrics as metrics
    import repro.flow.cts as cts
    import repro.guard.validation as validation
    import repro.ir.stages as stages
    import repro.routing.hierarchical as hierarchical
    import repro.serve.server as server
    import repro.serve.session as session
    from repro.clustering import dual_level
    from repro.flow import CtsConfig, DoubleSideCTS
    from repro.timing.vectorized import VectorizedElmoreEngine

    originals = {
        "evaluate_tree": metrics.evaluate_tree,
        "design_cache_key": validation.design_cache_key,
        "dual_level_clustering": dual_level.dual_level_clustering,
    }
    run_method = DoubleSideCTS.run
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
        for module in (cts, stages, explorer):
            assert module.evaluate_tree is not originals["evaluate_tree"]
        for module in (session, server):
            assert module.design_cache_key is not originals["design_cache_key"]
        clustering = hierarchical.dual_level_clustering
        assert clustering is not originals["dual_level_clustering"]
        assert "full_compiles" in VectorizedElmoreEngine.__dict__
        design = load_design("C4", scale=0.05, include_combinational=False)
        result = DoubleSideCTS(asap7_backside(), CtsConfig()).run(design)
    finally:
        tracer.restore()
    assert tracer.installed_wrappers() == []
    for module in (cts, stages, explorer, metrics):
        assert module.evaluate_tree is originals["evaluate_tree"]
    for module in (session, server, validation):
        assert module.design_cache_key is originals["design_cache_key"]
    assert hierarchical.dual_level_clustering is originals["dual_level_clustering"]
    assert DoubleSideCTS.run is run_method
    assert "full_compiles" not in VectorizedElmoreEngine.__dict__
    summary = summarize(tracer.spans)
    for name in ("flow.run", "routing.route", "insertion.run", "evaluation.evaluate"):
        assert summary[name]["calls"] >= 1
    assert tracer.counts["timing.engines"] >= 1
    assert tracer.counts["timing.full_compiles"] >= 1
    assert result.metrics.sinks == design.require_clock_net().sink_count


def test_missing_target_is_reported_not_raised():
    tracer = Tracer()
    assert not tracer.patch("repro.flow.cts", "DoubleSideCTS.no_such_method", "x")
    assert not tracer.patch("repro.no_such_module", "f", "x")
    assert tracer.missing == [
        "repro.flow.cts.DoubleSideCTS.no_such_method",
        "repro.no_such_module.f",
    ]
    tracer.restore()


# ------------------------------------------------------------------ inputs
def _net_bytes(design) -> bytes:
    net = design.require_clock_net()
    source = net.source.location
    parts = [net.name, net.source.name, source.x.hex(), source.y.hex()]
    for sink in net.sinks:
        where = sink.location
        parts += [sink.name, where.x.hex(), where.y.hex(), sink.capacitance.hex()]
    return "|".join(parts).encode()


def test_same_seed_gives_identical_design_inputs():
    assert _net_bytes(workloads.load("C4")) == _net_bytes(workloads.load("C4"))


@pytest.fixture(scope="module")
def small_session():
    pdk = asap7_backside()
    net = load_design("C4", scale=0.1, include_combinational=False).require_clock_net()
    return pdk, build_session(pdk, net)


def test_same_seed_gives_identical_request_lines(small_session):
    _pdk, session = small_session
    nodes = {"C4": workloads.SessionNodes.of(session.key, session.design)}

    def lines(seed):
        rounds = workloads.serve_rounds(seed, nodes, 8)
        return b"".join(r.line for requests in rounds for r in requests)

    assert lines(3) == lines(3)
    assert lines(3) != lines(4)
    kinds = [r.kind for r in workloads.serve_rounds(3, nodes, 1)[0]]
    assert (kinds.count("read"), kinds.count("corner"), kinds.count("commit")) == (
        workloads.READS,
        workloads.CORNER_READS,
        2,
    )


def test_each_round_restores_the_committed_state(small_session):
    pdk, session = small_session
    design = session.design
    nodes = {"C4": workloads.SessionNodes.of(session.key, design)}
    before = design_cache_key(design)
    for requests in workloads.serve_rounds(5, nodes, 6):
        for request in requests:
            if request.kind == "commit":
                for edit in request.edits:
                    apply_edit(design, edit, pdk)
        assert design_cache_key(design) == before


# ------------------------------------------------------------- percentile
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(1, 100)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(15)), 50)


# --------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {**run.END_TO_END, **workloads.QOR}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {
        name: (unit, better)
        for name, (unit, better, _source, _moves) in layers.LAYER_METRICS.items()
    }
