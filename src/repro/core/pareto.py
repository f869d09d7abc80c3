"""Pareto frontiers of cost/quality trade-offs (paper Section V, Fig. 13).

The paper reads its design space as accuracy against average end-to-end
latency; the serving studies read replica-seconds against tail latency.
Both ask which options no other option beats on both axes at once.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")


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
