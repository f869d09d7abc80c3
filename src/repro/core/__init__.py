"""Characterization framework: the paper's primary contribution.

This package turns raw simulator traces into the quantities the paper
reports: latency breakdowns, GPU runtime/utilization, token-composition
breakdowns, KV-memory statistics, per-query energy, Pareto frontiers,
and datacenter-wide power projections.
"""

from repro.core.intervals import clip, intersect, merge_intervals, total_length
from repro.core.metrics import (
    GpuRuntimeBreakdown,
    LatencyBreakdown,
    LatencyStats,
    TokenBreakdown,
    mean,
    percentile,
)
from repro.core.pareto import pareto_frontier
from repro.core.datacenter import (
    CHATGPT_QUERIES_PER_DAY,
    GOOGLE_QUERIES_PER_DAY,
    PowerProjection,
    format_power,
    gigawatt_threshold_energy_wh,
    project_power,
    project_scenarios,
)
from repro.core.runner import CharacterizationResult, RequestObservation

__all__ = [
    "CHATGPT_QUERIES_PER_DAY",
    "CharacterizationResult",
    "GOOGLE_QUERIES_PER_DAY",
    "GpuRuntimeBreakdown",
    "LatencyBreakdown",
    "LatencyStats",
    "PowerProjection",
    "RequestObservation",
    "TokenBreakdown",
    "clip",
    "format_power",
    "gigawatt_threshold_energy_wh",
    "intersect",
    "mean",
    "merge_intervals",
    "pareto_frontier",
    "percentile",
    "project_power",
    "project_scenarios",
    "total_length",
]
