#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flow_suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics instead (alternate samples untraced and through the span
wrappers of ``layers.py``) and writes the spans to ``.perfbench/``.  Human
readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The program runs
from ``src/`` of the same checkout, single-process, with ``workers=1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import layers
from calibrate import HostSampler
from percentiles import median
from spans import END, PARENT, START, Tracer, root_time, summarize

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: End-to-end metrics besides the QoR sums of ``workloads.QOR``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sample_s": "s",
}


def _quiet_environment() -> None:
    """Noise controls, applied before anything imports numpy or starts a
    thread.

    One CPU for the whole process, its threads included: the serve client,
    the server's asyncio and executor threads and the host sampler then hand
    off on one core instead of waking each other across cores, and the
    sampler times the core the work runs on.  One BLAS thread: default
    threading burned more CPU than wall time on two cores without making the
    flow faster.  No ``REPRO_*`` variables: the library defaults are what
    gets measured.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def _import_program():
    """Import the program from this checkout's ``src/``; time the import."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads

    end = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported {repro.__file__}, not {SRC}")
    return workloads, (start, end)


def environment() -> dict:
    import numpy

    from repro.flow import CtsConfig

    config = CtsConfig()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "backends": vars(config.resolved_backends()),
        "workers": config.resolved_workers(),
    }


def timed(sampler: HostSampler, step) -> tuple[object, float, float]:
    """``(result, wall s, scale)`` of ``step()``: a time taken inside the
    step times ``scale`` is calibrated (see ``calibrate.py``)."""
    start = time.perf_counter()
    result = step()
    end = time.perf_counter()
    return result, end - start, 1.0 / sampler.slowdown(start, end)


class Samples:
    """The timed samples of one measuring phase."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.calibrated: list[float] = []
        self.attempted = 0
        self.failed = 0

    def describe(self) -> str:
        return (
            f"median of {len(self.raw)} samples; raw median {median(self.raw):.4g} s, "
            f"range {min(self.raw):.4g}-{max(self.raw):.4g} s"
        )


def take_sample(sampler: HostSampler, workload, samples: Samples) -> float:
    """Collect garbage, then time one sample into ``samples``; its seconds."""
    gc.collect()
    (elapsed, attempted, failed), _wall, scale = timed(sampler, workload.sample)
    samples.raw.append(elapsed)
    samples.calibrated.append(elapsed * scale)
    samples.attempted += attempted
    samples.failed += failed
    return elapsed


def measure(sampler: HostSampler, workload, seconds: float) -> Samples:
    """Timed samples for ``seconds`` (at least one).  A sample starts only
    if it is expected to end in time, so the measured span does not depend
    on the sample size."""
    samples = Samples()
    deadline = time.perf_counter() + seconds
    last = take_sample(sampler, workload, samples)
    while time.perf_counter() + last < deadline:
        last = take_sample(sampler, workload, samples)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(
    sampler: HostSampler, workloads, imported: tuple[float, float], args
) -> tuple[dict, list[str], Samples]:
    import_s = imported[1] - imported[0]
    import_calibrated = import_s / sampler.slowdown(*imported)
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for attempt in range(SETUP_REPEATS):
        workload = cls(args.seed)
        try:
            _result, wall, scale = timed(sampler, workload.setup)
        except BaseException:
            workload.close()
            raise
        setups.append(wall * scale)
        if attempt < SETUP_REPEATS - 1:
            workload.close()
    try:
        samples = measure(sampler, workload, args.seconds)
        rss = peak_rss_mb()
        problems = workload.check()
        qor = workload.qor()
    finally:
        workload.close()
    values = {
        "setup_s": import_calibrated + median(setups),
        "peak_rss_mb": rss,
        "sample_s": median(samples.calibrated),
        **qor,
    }
    notes = {
        "setup_s": f"import {import_s:.3f} s + median of {len(setups)} set-ups",
        "sample_s": samples.describe(),
    }
    units = {**END_TO_END, **workloads.QOR}
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:>16} = {values[name]:<14.6g} {unit:<6} {notes.get(name, '')}")
    return metrics, problems, samples


def run_traced(
    sampler: HostSampler, workloads, args
) -> tuple[dict, list[str], Samples]:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_tracer, tracer = Tracer(), Tracer()
    try:
        layers.install(setup_tracer)
        try:
            workload.setup()
        finally:
            setup_tracer.restore()
        setup_spans = setup_tracer.spans
        generate = summarize(setup_spans).get("designs.generate", {})
        # Untraced and traced samples alternate, so a slow phase of the host
        # lands on both sides of the overhead comparison.
        untraced, traced = Samples(), Samples()
        is_traced: list[bool] = []
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while len(is_traced) < 2 or time.perf_counter() + last < deadline:
            if len(is_traced) % 2:
                layers.install(tracer)
                try:
                    last = take_sample(sampler, workload, traced)
                finally:
                    tracer.restore()
            else:
                last = take_sample(sampler, workload, untraced)
            is_traced.append(len(is_traced) % 2 == 1)
        problems = workload.check()
        values = layers.span_metrics(
            summarize(tracer.spans), tracer.counts, len(traced.raw)
        )
        values["designs.generate_s"] = generate.get("total", 0.0)
        accounted = root_time(tracer.spans)
        if isinstance(workload, workloads.ServeWhatIf):
            plain = [i for i, flag in enumerate(is_traced) if not flag]
            values.update(workload.request_metrics(plain, sum(untraced.raw)))
            # One connection, one request at a time: the i-th root span is
            # the handle_line call of the i-th traced request.
            handles = [s for s in tracer.spans if s[PARENT] < 0]
            kinds, latencies = workload.executed(
                [i for i, flag in enumerate(is_traced) if flag]
            )
            if len(handles) != len(latencies):
                problems.append(
                    f"trace: {len(handles)} handle_line spans for "
                    f"{len(latencies)} requests"
                )
            fronts = [lat - (h[END] - h[START]) for h, lat in zip(handles, latencies)]
            values["serve.front_ms"] = (
                median([f for f, k in zip(fronts, kinds) if k == "read"]) * 1e3
            )
            accounted += sum(fronts)
    finally:
        workload.close()
    leftover = setup_tracer.installed_wrappers() + tracer.installed_wrappers()
    if leftover:
        problems.append(f"trace: wrappers left installed: {leftover}")
    values["trace.coverage_pct"] = 100.0 * accounted / sum(traced.raw)
    values["trace.overhead_pct"] = 100.0 * (
        median(traced.calibrated) / median(untraced.calibrated) - 1.0
    )
    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as handle:
        json.dump({"setup": setup_spans, "traced": tracer.spans}, handle)
    if setup_tracer.missing:
        print(f"trace: not found, reported as 0: {setup_tracer.missing}", file=sys.stderr)
    metrics = {}
    for name, (unit, _better, _source, moves) in layers.LAYER_METRICS.items():
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        print(f"{name:>28} = {metrics[name]['value']:<12.6g} {unit:<5} -> {moves}")
    print(
        f"trace: untraced {untraced.describe()}; traced {traced.describe()}; "
        f"{len(tracer.spans)} spans"
    )
    samples = Samples()
    samples.attempted = untraced.attempted + traced.attempted
    samples.failed = untraced.failed + traced.failed
    return metrics, problems, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _quiet_environment()
    with HostSampler() as sampler:
        workloads, imported = _import_program()
        if args.workload not in workloads.WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r}; "
                f"one of {list(workloads.WORKLOADS)}"
            )
        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
        if args.trace:
            metrics, problems, samples = run_traced(sampler, workloads, args)
        else:
            metrics, problems, samples = run_untraced(
                sampler, workloads, imported, args
            )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    share = samples.failed / max(samples.attempted, 1)
    print(
        f"operations: {samples.attempted} attempted, {samples.failed} failed "
        f"({share:.1%})"
    )
    result = {
        "correct": not problems,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
