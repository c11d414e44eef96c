"""Order statistics shared by the benchmark runner and ``compare.py``.

Stdlib only: the runner and the comparison tool do not import numpy or the
program under test.
"""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles; an empty list is an error.
    """
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("quartiles of no values")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summary(values) -> dict:
    """Median, quartiles and count of ``values`` (JSON-safe)."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def geomean(values) -> float:
    """Geometric mean of positive values."""
    xs = [float(v) for v in values]
    if not xs or min(xs) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
