"""Interval arithmetic helpers for latency-breakdown analysis.

The paper's Figure 5 splits a request's wall-clock time into LLM time, tool
time, LLM+tool overlap (pipelined execution in LLMCompiler), and "other"
framework time.  With concurrent LLM and tool calls the only robust way to do
that is set arithmetic on the calls' time intervals, implemented here.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of intervals as a sorted list of disjoint intervals."""
    cleaned = sorted((min(a, b), max(a, b)) for a, b in intervals if a != b)
    merged: List[Interval] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def total_length(intervals: Iterable[Interval]) -> float:
    """Total covered length of a union of intervals."""
    return sum(end - start for start, end in merge_intervals(intervals))


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two interval unions."""
    merged_a = merge_intervals(a)
    merged_b = merge_intervals(b)
    result: List[Interval] = []
    i = j = 0
    while i < len(merged_a) and j < len(merged_b):
        start = max(merged_a[i][0], merged_b[j][0])
        end = min(merged_a[i][1], merged_b[j][1])
        if start < end:
            result.append((start, end))
        if merged_a[i][1] < merged_b[j][1]:
            i += 1
        else:
            j += 1
    return result
