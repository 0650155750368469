"""Small statistics helpers shared by the workloads (stdlib only).

Every helper here has a self-test in ``perfbench/tests``.
"""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> "tuple[float, int]":
    """The ``q``-th percentile (0-100) of ``values`` and the sample count.

    Linear interpolation between closest ranks (numpy's default method),
    so ``percentile([1, 2, 3, 4], 50) == (2.5, 4)``.  An empty input is
    an error: a latency with no samples behind it is not a measurement.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction, len(ordered)


def median(values) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def normalised_auc(counts, values) -> float:
    """Trapezoidal learning-curve area divided by the count span.

    A single-point curve returns its value, matching
    ``repro.eval.curves.area_under_curve(normalize=True)``.
    """
    counts = [float(c) for c in counts]
    values = [float(v) for v in values]
    if len(counts) != len(values) or not counts:
        raise ValueError("curve counts and values must be aligned and non-empty")
    if len(counts) == 1:
        return values[0]
    area = sum(
        (counts[i + 1] - counts[i]) * (values[i + 1] + values[i]) / 2.0
        for i in range(len(counts) - 1)
    )
    return area / (counts[-1] - counts[0])


def due_latencies(due, done) -> "list[float]":
    """Open-loop latency of each request: completion minus *due* time.

    Timing from the due time (not the send time) charges a stalled
    generator's delay to every request it held back.
    """
    if len(due) != len(done):
        raise ValueError("due and done must be aligned")
    return [end - start for start, end in zip(due, done)]


def generator_lag(due, sent) -> "list[float]":
    """How late the load generator sent each request (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must be aligned")
    return [max(0.0, actual - planned) for planned, actual in zip(due, sent)]


def slo_attainment(latencies, limit: float, failures: int = 0) -> float:
    """Share of requests answered within ``limit``; failures count as misses."""
    total = len(latencies) + failures
    if total == 0:
        raise ValueError("no requests")
    return sum(1 for value in latencies if value <= limit) / total
