"""Host-speed calibration of timed samples.

On a shared two-core host the same 8-point sweep took from 3.3 s to 5.7 s
within one run, depending on what the neighbours were doing; CPU time
tracked wall time, so the process was slowed, not descheduled.  The slow
phases last seconds to minutes, longer than a run, so more repetition does
not remove them.

:class:`HostSampler` times a tiny fixed kernel, which does not touch the
program, every :data:`PERIOD_S` on a background thread for as long as the
benchmark runs.  A sample's calibrated time is its wall time divided by the
mean slowdown of the kernel runs made while it ran, i.e. the time it would
have taken on a host where the kernel takes :data:`NOMINAL_S`.  The
program's own speed moves the calibrated time in full; the neighbours move
it much less: over eight consecutive sweeps the raw times varied by 14%
(coefficient of variation), times scaled by kernel runs just before and
after each sweep by 14%, and times scaled by the sampler by 3-4%.  The
kernel is pure Python and short, so it runs under the interpreter lock in
one piece; it costs about 1% of the measured time.
"""

from __future__ import annotations

import threading
import time

#: Seconds between kernel runs.
PERIOD_S = 0.05
#: The kernel's time on a quiet host; calibrated times are in seconds of
#: that host.
NOMINAL_S = 0.0005


def kernel() -> float:
    """Seconds one run of the fixed calibration kernel takes."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        total += (i * 2654435761) & 0xFFFF
        table[i & 255] = total
    return time.perf_counter() - start


class HostSampler:
    """Runs :func:`kernel` every :data:`PERIOD_S` until closed."""

    def __init__(self) -> None:
        self._runs: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-host-sampler", daemon=True
        )

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            self._runs.append((start, kernel()))

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel slowdown over ``[start, end]`` (perf_counter times);
        the latest earlier run stands in for an interval too short to hold
        one."""
        runs = [d for t, d in self._runs if start <= t <= end]
        if not runs:
            earlier = [d for t, d in self._runs if t <= end]
            runs = earlier[-1:] or [kernel()]
        return sum(runs) / len(runs) / NOMINAL_S
