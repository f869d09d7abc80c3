"""Frontier-driven fleet planning.

A :class:`FleetPlanner` turns a hardware-layout study (a
:class:`repro.api.study.StudyResult` whose points vary pool hardware,
replica counts, or traffic shape) into an operating-point decision.  It
evaluates the study's cost/quality Pareto frontier once, then answers the
two questions a capacity planner actually asks:

* :meth:`FleetPlanner.plan_for_budget` -- "I can spend at most X; which
  layout gives the best quality within that?"
* :meth:`FleetPlanner.plan_for_target` -- "I must hold quality Y; which
  layout does that cheapest?"

Both return a :class:`FleetPlan` carrying the selected study point, its
evaluated cost/quality coordinates, and ``pool_targets`` -- the per-pool
replica counts of the winning layout -- ready to hand to a live
:class:`repro.serving.autoscaler.Autoscaler` via
:meth:`Autoscaler.set_planned_target`, so the control loop re-plans as
shaped traffic moves instead of reacting from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # repro.api imports repro.serving; avoid the cycle at runtime
    from repro.api.results import Metric
    from repro.api.study import ParetoPoint, StudyPoint, StudyResult


@dataclass(frozen=True)
class FleetPlan:
    """One selected operating point: the layout to run and why."""

    point: StudyPoint
    cost: float
    quality: float
    #: Axis labels of the winning point (e.g. ``{"fleet": "mixed-h100-l4"}``).
    labels: Dict[str, str] = field(default_factory=dict)
    #: Replica count per pool in the winning layout (``spec.fleet``: a flat
    #: spec maps its one pool ``"default"`` to ``spec.replicas``).
    pool_targets: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """A one-line human summary of the plan."""
        layout = ", ".join(f"{k}={v}" for k, v in self.labels.items()) or "base spec"
        pools = ", ".join(f"{name}x{n}" for name, n in self.pool_targets.items())
        return (
            f"plan[{layout}] cost={self.cost:.4g} quality={self.quality:.4g}"
            f" pools({pools})"
        )


def _pool_targets(point: StudyPoint) -> Dict[str, int]:
    return {pool.name: pool.replicas for pool in point.spec.fleet}


class FleetPlanner:
    """Select fleet operating points from a study's Pareto frontier.

    ``cost`` and ``quality`` are study metric names (see
    :func:`repro.api.results.resolve_metric`); ``minimize_cost`` /
    ``minimize_quality`` carry the same meaning as in
    :meth:`StudyResult.pareto_frontier`.  The frontier is evaluated once
    and cached; planners are cheap to query repeatedly.
    """

    def __init__(
        self,
        result: StudyResult,
        cost: Metric = "cost_per_1k_tokens",
        quality: Metric = "slo_attainment:chat",
        minimize_cost: bool = True,
        minimize_quality: bool = False,
    ) -> None:
        if not result.points:
            raise ValueError("FleetPlanner needs a study with at least one point")
        self.result = result
        self.cost_metric = cost
        self.quality_metric = quality
        self.minimize_cost = minimize_cost
        self.minimize_quality = minimize_quality
        self._frontier: Optional[List[ParetoPoint]] = None

    @property
    def frontier(self) -> List[ParetoPoint]:
        """The cached cost/quality Pareto frontier, sorted by cost."""
        if self._frontier is None:
            self._frontier = self.result.pareto_frontier(
                cost=self.cost_metric,
                quality=self.quality_metric,
                minimize_cost=self.minimize_cost,
                minimize_quality=self.minimize_quality,
            )
        return self._frontier

    def _plan(self, entry: ParetoPoint) -> FleetPlan:
        return FleetPlan(
            point=entry.point,
            cost=entry.cost,
            quality=entry.quality,
            labels=dict(entry.point.labels),
            pool_targets=_pool_targets(entry.point),
        )

    def _quality_key(self, entry: ParetoPoint) -> float:
        return -entry.quality if not self.minimize_quality else entry.quality

    def plan_for_budget(self, cost_budget: float) -> FleetPlan:
        """The best-quality frontier point whose cost fits the budget.

        Falls back to the cheapest frontier point when nothing fits, so
        callers always get an actionable plan (the returned plan's
        ``cost`` tells them the budget was blown).
        """
        sign = 1.0 if self.minimize_cost else -1.0
        affordable = [
            entry for entry in self.frontier if sign * entry.cost <= sign * cost_budget
        ]
        if affordable:
            return self._plan(min(affordable, key=self._quality_key))
        cheapest = min(self.frontier, key=lambda entry: sign * entry.cost)
        return self._plan(cheapest)

    def plan_for_target(self, quality_target: float) -> FleetPlan:
        """The cheapest frontier point meeting the quality target.

        Falls back to the best-quality frontier point when no point meets
        the target -- the closest the studied layouts can get.
        """
        quality_sign = 1.0 if self.minimize_quality else -1.0
        cost_sign = 1.0 if self.minimize_cost else -1.0
        meeting = [
            entry
            for entry in self.frontier
            if quality_sign * entry.quality <= quality_sign * quality_target
        ]
        if meeting:
            return self._plan(min(meeting, key=lambda entry: cost_sign * entry.cost))
        best = min(self.frontier, key=self._quality_key)
        return self._plan(best)

    def apply(self, plan: FleetPlan, autoscalers: Dict[str, "object"]) -> None:
        """Push a plan's per-pool targets into live autoscalers.

        ``autoscalers`` maps pool name to an object exposing
        ``set_planned_target`` (normally
        :class:`repro.serving.autoscaler.Autoscaler`).  Pools the plan
        does not mention are cleared back to purely-reactive control.
        """
        for name, scaler in autoscalers.items():
            scaler.set_planned_target(plan.pool_targets.get(name))
