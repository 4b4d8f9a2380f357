"""Percentiles with a minimum tail, and the spread of repeated runs."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


def tail_count(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def nearest_rank(values, q: float) -> float | None:
    """The nearest-rank ``q`` percentile, or None when the tail is short.

    ``None`` whenever fewer than :data:`MIN_TAIL` samples lie beyond the
    percentile, so a p90 needs at least 100 samples and a p50 at least 20.
    """
    values = sorted(values)
    n = len(values)
    if n == 0 or tail_count(n, q) < MIN_TAIL:
        return None
    return values[max(math.ceil(q * n), 1) - 1]


def relative_iqr(values) -> float:
    """Distance between the quartiles as a share of the median."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0
