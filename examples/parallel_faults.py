#!/usr/bin/env python3
"""The fault-tolerant parallel tier: worker failures that never change bits.

Every pool consumer in the flow (region-parallel routing shards, DP
subtrees, the DSE sweep, ``FlowCache.warm``) runs through
``repro.parallel.run_tasks`` under a ``ParallelPolicy``
(``CtsConfig(parallel_policy=...)`` / ``REPRO_PARALLEL_POLICY``):

* a failed task — worker crash, hang past ``timeout_s``, corrupt result,
  lost worker — is retried with exponential backoff on a respawned pool;
* a task that exhausts its attempts is recomputed **inline, serially**.
  Because the parallel tier is bit-identical to serial by construction,
  that degraded result is exactly what the healthy pool would have
  produced — recovery never changes the answer, only the wall-clock;
* every recovery is recorded as a ``ParallelDiagnostic`` on the result
  (``result.parallel_diagnostics`` / ``result.parallel_summary()``);
* ``mode="strict"`` (``dscts run --strict-parallel``) raises a typed
  ``ParallelError`` instead of degrading — and like ``GuardError`` it is
  never caught at a call site.

This script arms the worker-fault injectors from ``repro.guard.faults``
against a real flow run at ``workers=2`` and shows the whole ladder: a
crash retried, a corrupted shard degraded to serial, and strict mode
failing fast — with the recovered trees verified node-for-node against a
serial run.

Usage::

    python examples/parallel_faults.py [sinks]

    sinks   sink count of the generated clock net; default 2000
"""

from __future__ import annotations

import sys

from repro import asap7_backside
from repro.designs import random_sink_cloud
from repro.flow import CtsConfig, DoubleSideCTS, ParallelError, ParallelPolicy
from repro.guard import WorkerFault, arm_worker_faults


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


def run_once(pdk, clock_net, workers: int, policy: ParallelPolicy | None = None):
    # Hc sized well below the sink count so the clustering yields several
    # top-level regions — otherwise routing runs inline (one shard needs no
    # pool) and there would be no worker for the faults to kill.
    config = CtsConfig(
        workers=workers,
        parallel_policy=policy,
        high_cluster_size=max(len(clock_net.sinks) // 4, 50),
    )
    return DoubleSideCTS(pdk, config).run(clock_net)


def main() -> int:
    sinks = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    pdk = asap7_backside()
    clock_net = random_sink_cloud(sinks, seed=11)
    policy = ParallelPolicy(attempts=2, backoff_s=0.0)

    print(f"{sinks}-sink clock net, serial baseline first\n")
    serial = run_once(pdk, clock_net, workers=1)
    reference = fingerprint(serial.tree)

    print("crash on every first attempt — the retry rung recovers:")
    crash = WorkerFault(stage="routing", kind="crash", fail_attempts=1)
    with arm_worker_faults(crash):
        result = run_once(pdk, clock_net, workers=2, policy=policy)
    print(f"  {result.parallel_summary()}")
    for diagnostic in result.parallel_diagnostics:
        print(
            f"  {diagnostic.action} {diagnostic.stage!r} {diagnostic.task} "
            f"after {diagnostic.attempts} attempts ({diagnostic.cause})"
        )
    print(f"  bit-identical to serial: {fingerprint(result.tree) == reference}\n")

    print("corrupt results on every attempt — degrade-to-serial recovers:")
    corrupt = WorkerFault(stage="routing", kind="corrupt", fail_attempts=policy.attempts)
    with arm_worker_faults(corrupt):
        result = run_once(pdk, clock_net, workers=2, policy=policy)
    print(f"  {result.parallel_summary()}")
    print(f"  bit-identical to serial: {fingerprint(result.tree) == reference}\n")

    print("the same exhausted fault under mode='strict' — fail fast instead:")
    with arm_worker_faults(corrupt):
        try:
            run_once(
                pdk, clock_net, workers=2, policy=policy.with_updates(mode="strict")
            )
        except ParallelError as exc:
            print(f"  ParallelError at stage {exc.stage!r}, {exc.task}")
            print(f"  {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
