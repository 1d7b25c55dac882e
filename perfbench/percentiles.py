"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``.

    Refuses a percentile with fewer than :data:`MIN_BEYOND` samples above
    its rank: with fewer, the value is set by a handful of outliers and does
    not repeat from run to run.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]
