"""Order statistics and span arithmetic used by the benchmark.

Kept free of lcdisc and NumPy imports so the unit tests exercise the
benchmark's own arithmetic in isolation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

# the tail is the highest percentile that still has this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """Tail latency as (value, percentile, sample count).

    The value is the order statistic with exactly ``TAIL_BEYOND`` samples
    above it, i.e. the (TAIL_BEYOND + 1)-th largest sample, which sits at
    percentile 100 * (n - TAIL_BEYOND) / n.  Taking the order statistic
    instead of rounding to a fixed ladder of percentiles keeps the metric
    continuous when the sample count drifts between runs.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(values)
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    return float(ordered[n - TAIL_BEYOND - 1]), percentile, n


@dataclass(slots=True)
class Span:
    """One timed call at a layer boundary.

    ``parent`` indexes the enclosing span of the same request (-1 for the
    root); ``attrs`` holds the work counts read from the call's arguments.
    """

    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def ancestor_named(spans: Sequence[Span], index: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return -1
