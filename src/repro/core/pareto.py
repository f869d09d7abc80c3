"""Accuracy-cost trade-off analysis (paper Section V, Fig. 13-16).

A *design point* is one agent configuration evaluated on one benchmark:
its accuracy, its average end-to-end latency (the paper's cost proxy), and
auxiliary costs (tokens, energy).  This module provides cost-efficiency
(accuracy per unit latency), Pareto-frontier extraction, and the selection of
the best-accuracy and best-efficiency points the paper marks in its figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated agent configuration."""

    label: str
    agent: str
    benchmark: str
    accuracy: float
    latency_s: float
    config: Dict[str, object] = field(default_factory=dict)
    total_tokens: float = 0.0
    energy_wh: float = 0.0
    p95_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be within [0, 1]")

    @property
    def cost_efficiency(self) -> float:
        """Accuracy per second of end-to-end latency (paper Fig. 13b)."""
        if self.latency_s <= 0:
            return 0.0
        return self.accuracy / self.latency_s

    def efficiency_against(self, cost: float) -> float:
        """Accuracy per unit of an alternative cost metric (tokens, Wh, ...)."""
        if cost <= 0:
            return 0.0
        return self.accuracy / cost


def normalized_efficiency(points: Sequence[DesignPoint]) -> Dict[str, float]:
    """Cost-efficiency of each point normalised to the best point (max = 1.0)."""
    if not points:
        return {}
    efficiencies = {point.label: point.cost_efficiency for point in points}
    best = max(efficiencies.values())
    if best <= 0:
        return {label: 0.0 for label in efficiencies}
    return {label: value / best for label, value in efficiencies.items()}


def pareto_frontier(
    items: Iterable[T],
    cost: Callable[[T], float],
    quality: Callable[[T], float],
    minimize_cost: bool = True,
    minimize_quality: bool = True,
) -> List[T]:
    """The items no other item dominates on the (cost, quality) plane, by cost.

    ``cost`` and ``quality`` are key functions; the defaults minimise both,
    and ``minimize_quality=False`` suits maximised qualities such as
    accuracy.  An item is dominated when another is at least as good on
    both keys and strictly better on one, so exact duplicates all survive,
    in input order.
    """
    cost_sign = 1.0 if minimize_cost else -1.0
    quality_sign = 1.0 if minimize_quality else -1.0
    keyed = [
        ((cost_sign * cost(item), quality_sign * quality(item)), item) for item in items
    ]
    frontier = [
        (key, item)
        for key, item in keyed
        if not any(
            other[0] <= key[0] and other[1] <= key[1] and other != key
            for other, _ in keyed
        )
    ]
    frontier.sort(key=lambda entry: entry[0])
    return [item for _, item in frontier]


def best_accuracy_point(points: Sequence[DesignPoint]) -> Optional[DesignPoint]:
    """The red-diamond marker of Fig. 14/15: the highest-accuracy configuration."""
    if not points:
        return None
    return max(points, key=lambda p: (p.accuracy, -p.latency_s))


def best_efficiency_point(points: Sequence[DesignPoint]) -> Optional[DesignPoint]:
    """The blue-diamond marker of Fig. 14/15: the best accuracy/latency ratio."""
    if not points:
        return None
    return max(points, key=lambda p: p.cost_efficiency)


def diminishing_returns(points: Sequence[DesignPoint]) -> List[float]:
    """Marginal accuracy gain per additional second along increasing latency.

    The paper's central claim is that this sequence decays rapidly; the bench
    for Fig. 16 asserts exactly that.
    """
    ordered = sorted(points, key=lambda p: p.latency_s)
    marginals: List[float] = []
    for previous, current in zip(ordered, ordered[1:]):
        extra_latency = current.latency_s - previous.latency_s
        extra_accuracy = current.accuracy - previous.accuracy
        if extra_latency <= 0:
            marginals.append(0.0)
        else:
            marginals.append(extra_accuracy / extra_latency)
    return marginals
