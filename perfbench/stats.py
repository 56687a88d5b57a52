"""Summary statistics of the benchmark."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile that still has at least `beyond` samples
    above it: the (N - beyond)-th smallest of N samples.

    Returns (value, percentile, N), or None when N <= beyond, where no
    percentile qualifies."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based rank of the reported sample
    return xs[rank - 1], 100.0 * rank / n, n
