"""The program's layers as the traced run sees them.

:data:`TARGETS` lists the public functions the tracer wraps, one span name
per layer boundary; :data:`LAYER_METRICS` lists every per-layer metric with
the end-to-end metric, and the workload, it is expected to move.  Times and
counts are per measured sample (a C1-C5 pass, an 8-point sweep, or a
60-request serve round) unless the name says otherwise.

Substrate modules (``geometry``, ``clocktree``, ``tech``, ``netlist``) run
inside the layers below and are not timed separately; ``baselines``,
``lefdef``, ``visualization`` and ``cli`` are not called by any workload.
"""

from __future__ import annotations

from typing import Any

from spans import Tracer


def _count_insertion(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("insertion.dp_nodes", result.dp_tree.node_count)
    tracer.count("insertion.root_candidates", len(result.root_candidates))


def _count_refinement(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("refinement.endpoints", result.refined_endpoints)
    tracer.count("refinement.added_buffers", result.added_buffers)


def _count_explore(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("dse.points", len(result.points))
    tracer.count("dse.failures", len(result.failures))
    tracer.count("dse.retried", sum(1 for point in result.points if point.retried))


def _count_engine(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("timing.engines")


def _count_tasks(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("parallel.tasks", len(result))


#: (module, function or Class.method, span name or None, result hook).
TARGETS = [
    ("repro.designs.suite", "load_design", "designs.generate", None),
    ("repro.flow.cts", "DoubleSideCTS.run", "flow.run", None),
    ("repro.clustering.kmeans", "KMeans.fit", "clustering.kmeans", None),
    (
        "repro.clustering.dual_level",
        "dual_level_clustering",
        "clustering.dual_level",
        None,
    ),
    (
        "repro.routing.hierarchical",
        "HierarchicalClockRouter.route",
        "routing.route",
        None,
    ),
    (
        "repro.routing.hierarchical",
        "HierarchicalClockRouter.route_design",
        "routing.route",
        None,
    ),
    ("repro.routing.dme_arrays", "VectorizedDmeRouter.route", "routing.dme", None),
    ("repro.routing.dme_arrays", "VectorizedDmeRouter.embed", "routing.dme", None),
    (
        "repro.insertion.concurrent",
        "ConcurrentInserter.run",
        "insertion.run",
        _count_insertion,
    ),
    (
        "repro.insertion.frontier",
        "VectorizedInsertionDp.run",
        "insertion.frontier",
        None,
    ),
    (
        "repro.insertion.frontier",
        "VectorizedInsertionDp.realize",
        "insertion.realize",
        None,
    ),
    (
        "repro.refinement.skew_refinement",
        "SkewRefiner.refine",
        "refinement.refine",
        _count_refinement,
    ),
    ("repro.timing.vectorized", "VectorizedElmoreEngine.__init__", None, _count_engine),
    (
        "repro.timing.vectorized",
        "VectorizedElmoreEngine.analyze",
        "timing.analyze",
        None,
    ),
    (
        "repro.timing.vectorized",
        "VectorizedElmoreEngine.analyze_corners",
        "timing.analyze",
        None,
    ),
    ("repro.evaluation.metrics", "evaluate_tree", "evaluation.evaluate", None),
    ("repro.guard.validation", "design_cache_key", "guard.fingerprint", None),
    ("repro.ir.design", "DesignArrays.compact", "ir.compact", None),
    ("repro.serve.server", "CtsServer.handle_line", "serve.handle", None),
    ("repro.serve.session", "DesignSession.what_if", "serve.what_if", None),
    ("repro.serve.session", "apply_edit", "serve.apply_edit", None),
    (
        "repro.dse.explorer",
        "DesignSpaceExplorer.explore",
        "dse.explore",
        _count_explore,
    ),
    ("repro.parallel", "run_tasks", "parallel.run_tasks", _count_tasks),
]

#: Engine telemetry attributes read through the tracer's counting descriptor.
COUNTED_ATTRIBUTES = [
    (
        "repro.timing.vectorized",
        "VectorizedElmoreEngine.full_compiles",
        "timing.full_compiles",
    ),
    (
        "repro.timing.vectorized",
        "VectorizedElmoreEngine.incremental_updates",
        "timing.incremental_updates",
    ),
]

#: name -> (unit, better, source, what it should move).  ``source`` is
#: ``("total"|"self"|"calls", span)`` for span figures, ``("count", name)``
#: for counters, or None for figures the workload measures itself.
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, str] | None, str]] = {
    "designs.generate_s": (
        "s", "lower", None,
        "setup_s on every workload (per set-up)",
    ),
    "clustering.kmeans_s": (
        "s", "lower", ("total", "clustering.kmeans"),
        "sample_s on flow_suite, a little on dse_sweep, nothing on serve_whatif",
    ),
    "clustering.kmeans_fits": (
        "count", "lower", ("calls", "clustering.kmeans"),
        "sample_s on flow_suite",
    ),
    "clustering.self_s": (
        "s", "lower", ("self", "clustering.dual_level"),
        "sample_s on flow_suite",
    ),
    "routing.route_s": (
        "s", "lower", ("total", "routing.route"),
        "sample_s on flow_suite",
    ),
    "routing.dme_s": (
        "s", "lower", ("total", "routing.dme"),
        "sample_s on flow_suite",
    ),
    "routing.self_s": (
        "s", "lower", ("self", "routing.route"),
        "sample_s on flow_suite (materialise and graft)",
    ),
    "insertion.run_s": (
        "s", "lower", ("total", "insertion.run"),
        "sample_s on dse_sweep most, then flow_suite",
    ),
    "insertion.frontier_s": (
        "s", "lower", ("total", "insertion.frontier"),
        "sample_s on dse_sweep and flow_suite",
    ),
    "insertion.realize_s": (
        "s", "lower", ("total", "insertion.realize"),
        "sample_s on dse_sweep and flow_suite",
    ),
    "insertion.self_s": (
        "s", "lower", ("self", "insertion.run"),
        "sample_s on dse_sweep and flow_suite (DP-tree build, segmentation)",
    ),
    "insertion.dp_nodes": (
        "count", "lower", ("count", "insertion.dp_nodes"),
        "sample_s on dse_sweep and flow_suite",
    ),
    "insertion.root_candidates": (
        "count", "lower", ("count", "insertion.root_candidates"),
        "sample_s on dse_sweep and flow_suite",
    ),
    "refinement.refine_s": (
        "s", "lower", ("total", "refinement.refine"),
        "sample_s on dse_sweep and flow_suite",
    ),
    "refinement.self_s": (
        "s", "lower", ("self", "refinement.refine"),
        "sample_s on dse_sweep and flow_suite",
    ),
    "refinement.endpoints": (
        "count", "lower", ("count", "refinement.endpoints"),
        "sample_s on dse_sweep and flow_suite (attempts)",
    ),
    "refinement.added_buffers": (
        "count", "higher", ("count", "refinement.added_buffers"),
        "skew_ps; added_buffers / endpoints is useful edits per attempt",
    ),
    "timing.engines": (
        "count", "lower", ("count", "timing.engines"),
        "sample_s on flow_suite through compiles",
    ),
    "timing.full_compiles": (
        "count", "lower", ("count", "timing.full_compiles"),
        "sample_s on flow_suite and dse_sweep",
    ),
    "timing.incremental_updates": (
        "count", "lower", ("count", "timing.incremental_updates"),
        "sample_s on serve_whatif (what-if and corner what-if latency)",
    ),
    "timing.analyze_s": (
        "s", "lower", ("total", "timing.analyze"),
        "sample_s on serve_whatif, flow_suite and dse_sweep",
    ),
    "evaluation.evaluate_s": (
        "s", "lower", ("total", "evaluation.evaluate"),
        "sample_s on serve_whatif, dse_sweep and flow_suite",
    ),
    "evaluation.self_s": (
        "s", "lower", ("self", "evaluation.evaluate"),
        "sample_s on serve_whatif, dse_sweep and flow_suite",
    ),
    "guard.fingerprint_s": (
        "s", "lower", ("total", "guard.fingerprint"),
        "sample_s on serve_whatif (commit latency) and its setup_s",
    ),
    "guard.fingerprints": (
        "count", "lower", ("calls", "guard.fingerprint"),
        "sample_s on serve_whatif (commit latency)",
    ),
    "ir.compact_s": (
        "s", "lower", ("total", "ir.compact"),
        "serve.whatif_p90_ms on serve_whatif",
    ),
    "ir.compactions": (
        "count", "lower", ("calls", "ir.compact"),
        "serve.whatif_p90_ms on serve_whatif",
    ),
    "serve.handle_self_s": (
        "s", "lower", ("self", "serve.handle"),
        "sample_s on serve_whatif (decode, dispatch, encode)",
    ),
    "serve.whatif_self_s": (
        "s", "lower", ("self", "serve.what_if"),
        "sample_s on serve_whatif",
    ),
    "serve.apply_edit_s": (
        "s", "lower", ("total", "serve.apply_edit"),
        "sample_s on serve_whatif",
    ),
    "serve.requests": (
        "count", "higher", ("calls", "serve.handle"),
        "sample_s on serve_whatif (requests per round)",
    ),
    "serve.front_ms": (
        "ms", "lower", None,
        "sample_s on serve_whatif: per read-only what-if, client latency minus "
        "handle_line (asyncio front, executor hop, socket)",
    ),
    "serve.whatif_p50_ms": (
        "ms", "lower", None,
        "sample_s on serve_whatif: read-only what-if latency, untraced",
    ),
    "serve.whatif_p90_ms": (
        "ms", "lower", None,
        "sample_s on serve_whatif: read-only what-if tail, untraced",
    ),
    "serve.commit_p50_ms": (
        "ms", "lower", None,
        "sample_s on serve_whatif: committed what-if latency, untraced",
    ),
    "serve.corner_whatif_p50_ms": (
        "ms", "lower", None,
        "sample_s on serve_whatif: 3-corner what-if latency, untraced",
    ),
    "serve.requests_per_s": (
        "1/s", "higher", None,
        "sample_s on serve_whatif: completed requests per loop second, untraced",
    ),
    "dse.points": (
        "count", "higher", ("count", "dse.points"),
        "sample_s on dse_sweep",
    ),
    "dse.failures": (
        "count", "lower", ("count", "dse.failures"),
        "failed on dse_sweep",
    ),
    "dse.retried": (
        "count", "lower", ("count", "dse.retried"),
        "failed on dse_sweep",
    ),
    "dse.explore_self_s": (
        "s", "lower", ("self", "dse.explore"),
        "sample_s on dse_sweep",
    ),
    "parallel.run_tasks_s": (
        "s", "lower", ("total", "parallel.run_tasks"),
        "sample_s on dse_sweep (inline path, workers=1)",
    ),
    "parallel.self_s": (
        "s", "lower", ("self", "parallel.run_tasks"),
        "sample_s on dse_sweep (per-point glue, tree copies)",
    ),
    "parallel.tasks": (
        "count", "lower", ("count", "parallel.tasks"),
        "sample_s on dse_sweep",
    ),
    "flow.run_s": (
        "s", "lower", ("total", "flow.run"),
        "sample_s on flow_suite",
    ),
    "flow.self_s": (
        "s", "lower", ("self", "flow.run"),
        "sample_s on flow_suite (guard, validate, result assembly)",
    ),
    "trace.coverage_pct": (
        "%", "higher", None,
        "share of the traced sample time that root spans (and the serve front) "
        "account for",
    ),
    "trace.overhead_pct": (
        "%", "lower", None,
        "traced minus untraced sample_s median, as a share of untraced",
    ),
}


def install(tracer: Tracer) -> None:
    """Wrap every target; a target missing upstream is skipped and listed."""
    for module, qualname, span, hook in TARGETS:
        tracer.patch(module, qualname, span, hook)
    for module, qualname, counter in COUNTED_ATTRIBUTES:
        tracer.count_attribute(module, qualname, counter)


def span_metrics(
    summary: dict[str, dict[str, float]], counts: dict[str, int], samples: int
) -> dict[str, float]:
    """Every span- and counter-derived layer metric, per sample."""
    out = {}
    for name, (_unit, _better, source, _moves) in LAYER_METRICS.items():
        if source is None:
            continue
        kind, key = source
        if kind == "count":
            value = counts.get(key, 0)
        else:
            value = summary.get(key, {}).get(kind, 0.0)
        out[name] = value / samples
    return out
