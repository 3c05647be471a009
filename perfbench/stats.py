"""Latency summaries, operation logs and span self time.

Percentiles follow one rule: p50, plus p90 when the sample holds at
least 100 values, else the highest whole percentile with at least ten
samples beyond it.  A failed operation enters the sample as an
infinite latency, so it misses every latency limit.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def upper_percentile(count: int) -> Optional[int]:
    """The highest reportable percentile for ``count`` samples, <= 90.

    ``None`` when no whole percentile has ten samples beyond it.
    """
    if count >= 100:
        return 90
    if count <= 10:
        return None
    return min(90, math.floor(100.0 * (1.0 - 10.0 / count)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class OpLog:
    """Attempts, failures by reason, and latencies of one operation type."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies: List[float] = []
        self.failures: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ok(self, seconds: float) -> int:
        self.latencies.append(seconds)
        return len(self.latencies) - 1

    def fail(self, reason: str) -> int:
        self.latencies.append(math.inf)
        self.failures[reason] += 1
        return len(self.latencies) - 1

    def mark_wrong(self, index: int) -> None:
        """Turn a completed operation into a failure after its check."""
        if not math.isinf(self.latencies[index]):
            self.latencies[index] = math.inf
            self.failures["wrong_answer"] += 1

    def mean_ok_ms(self) -> Optional[float]:
        good = [v for v in self.latencies if not math.isinf(v)]
        return 1e3 * sum(good) / len(good) if good else None

    def summary(self) -> Dict[str, object]:
        """Counts, p50 and the upper percentile, in milliseconds.

        Every attempt is a latency sample, so ``attempted`` is the
        sample count.
        """
        out: Dict[str, object] = {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": dict(self.failures),
        }
        if self.latencies:
            out["p50_ms"] = 1e3 * percentile(self.latencies, 50)
        upper = upper_percentile(self.attempted)
        if upper is not None:
            out["upper_percentile"] = upper
            out["upper_ms"] = 1e3 * percentile(self.latencies, upper)
        return out


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by ``intervals``, overlaps counted once."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: Sequence[Tuple[str, int, int]]) -> Dict[str, int]:
    """Summed self time per span name.

    ``spans`` are ``(name, start, end)`` intervals of one or more
    operations.  A span's parent is the innermost span whose interval
    contains it, so spans recorded on other threads or tasks nest
    correctly; its self time is its duration minus the union of its
    children's intervals, clipped to its own.
    """
    order = sorted(
        range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2], i)
    )
    children: Dict[int, List[int]] = {i: [] for i in order}
    stack: List[int] = []
    for i in order:
        _, start, end = spans[i]
        while stack and not (
            spans[stack[-1]][1] <= start and end <= spans[stack[-1]][2]
        ):
            stack.pop()
        if stack:
            children[stack[-1]].append(i)
        stack.append(i)
    totals: Dict[str, int] = {}
    for i, kids in children.items():
        name, start, end = spans[i]
        covered = union_length(
            (max(spans[k][1], start), min(spans[k][2], end)) for k in kids
        )
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals
