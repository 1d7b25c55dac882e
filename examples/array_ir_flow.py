#!/usr/bin/env python3
"""The persistent array IR: one ``DesignArrays`` through the whole flow.

The flow threads a single struct-of-arrays design (``repro.ir.DesignArrays``)
through routing, insertion, refinement, and evaluation without realising
``ClockTree`` objects between stages.  Object trees exist only at the
boundaries — ``to_clock_tree()`` / ``from_clock_tree()`` — where a stage
running a reference (executable-spec) backend bridges through them.

This script runs the same clock net on the default vectorized backends and
on the all-reference spec, checks the two results are identical
node-for-node, and shows the boundary bridges round-tripping.

Usage::

    python examples/array_ir_flow.py [sinks]

    sinks    sink count of the generated clock net; default 2000
"""

from __future__ import annotations

import sys
import time

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
from repro.ir import DesignArrays


def fingerprint(tree) -> list[tuple]:
    """Order-independent structural identity of a clock tree."""
    return sorted(
        (
            node.name,
            node.kind.value,
            node.parent.name if node.parent is not None else "",
            node.location.x,
            node.location.y,
        )
        for node in tree.nodes()
    )


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    pdk = asap7_backside()
    clock_net = random_sink_cloud(sinks, seed=11)

    start = time.perf_counter()
    result = DoubleSideCTS(pdk, CtsConfig()).run(clock_net)
    elapsed = time.perf_counter() - start
    spec = DoubleSideCTS(
        pdk,
        CtsConfig(
            backends=BackendSelection(
                timing="reference", dp="reference", dme="reference"
            )
        ),
    ).run(clock_net)
    identical = fingerprint(result.tree) == fingerprint(spec.tree)

    print(f"{sinks}-sink clock net\n")
    print(f"  vectorized flow      : {elapsed * 1e3:8.1f} ms")
    print(f"  matches the ref spec : {identical}")
    print(
        f"  metrics              : skew {result.metrics.skew:.2f} ps, "
        f"latency {result.metrics.latency:.2f} ps, "
        f"wirelength {result.metrics.wirelength:.0f} um\n"
    )
    if not identical:
        raise AssertionError("vectorized flow diverged from the spec — file a bug")

    # The flow's own design, and the boundary bridges around it.
    design = result.design
    nodes, sink_count, buffers, ntsvs = design.counts()
    print("The flow's DesignArrays:")
    print(f"  {nodes} rows: {sink_count} sinks, {buffers} buffers, {ntsvs} nTSVs")
    print(f"  wirelength {design.wirelength():.0f} um (matches the metrics above)")
    round_tripped = DesignArrays.from_clock_tree(design.to_clock_tree())
    same = fingerprint(round_tripped.to_clock_tree()) == fingerprint(result.tree)
    print(f"  object round-trip identical: {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
