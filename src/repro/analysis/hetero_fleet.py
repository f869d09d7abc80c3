"""Heterogeneous fleets: hardware layouts x traffic programs, cost-queried.

The datacenter scenarios so far size fleets in *replicas* of one GPU; real
capacity planning buys *hardware*.  This study crosses fleet hardware
layouts (the ``fleet`` axis: every pool carries its own
:class:`~repro.api.HardwareSpec`) with traffic programs (the ``traffic``
axis: steady vs burst) on the weighted chat+agent mixture, prices each run
with the catalog's GPU hourly rates, and asks the planner question on the
resulting frontier: dollars per 1k served tokens vs chat SLO attainment.

The headline read: a mixed fleet -- H100 chat pool for latency headroom,
L4 agent pool for cheap background tokens -- lands on the cost/attainment
Pareto frontier and *dominates* the homogeneous A100 fleet sized to the
same chat attainment, which pays A100 rates for every background token.
:class:`~repro.serving.planner.FleetPlanner` then selects the mixed layout
under a cost budget.  ``examples/hetero_fleet.py`` prints the grid, the
frontier, and the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.reporting import format_table
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    FleetPlan,
    FleetPlanner,
    HardwareSpec,
    MeasurementSpec,
    ParetoPoint,
    PoolSpec,
    StudyAxis,
    StudyResult,
    StudySpec,
    WeightedWorkload,
    run_study,
)
from repro.serving.shapes import ConstantShape, RateShape, SquareWaveShape

#: Metric columns the heterogeneous-fleet tables report.
HETERO_METRICS: Tuple[Tuple[str, object], ...] = (
    ("completed", "num_completed"),
    ("chat_attainment", "class_attainment:chat"),
    ("chat_p95_s", "class_p95:chat"),
    ("cost_usd", "cost_usd"),
    ("usd_per_1k_tok", "cost_per_1k_tokens"),
    ("energy_wh", "energy_wh"),
)

#: Fleet candidates: (label, chat GPU, chat replicas, agent GPU, agent
#: replicas).  The homogeneous A100 pair brackets the mixed fleet -- lean
#: (cheap, SLO-fragile) and heavy (sized until chat attainment matches the
#: mixed fleet, at A100 rates for every agent token).
DEFAULT_FLEETS: Tuple[Tuple[str, str, int, str, int], ...] = (
    ("a100-lean", "A100-40GB", 1, "A100-40GB", 2),
    ("a100-heavy", "A100-40GB", 4, "A100-40GB", 2),
    ("mixed-h100-l4", "H100-80GB", 1, "L4", 2),
)


def _fleet_layout(
    chat_gpu: str, chat_replicas: int, agent_gpu: str, agent_replicas: int
) -> Tuple[PoolSpec, ...]:
    """One hardware candidate: a chat pool + an agent pool, each pinned."""
    return (
        PoolSpec(
            name="chat",
            model="8b",
            replicas=chat_replicas,
            router="least-loaded",
            traffic_classes=("chat",),
            hardware=HardwareSpec(gpu=chat_gpu),
        ),
        PoolSpec(
            name="agent",
            model="8b",
            replicas=agent_replicas,
            scheduler="sjf-by-predicted-decode",
            router="prefix-affinity",
            traffic_classes=("agent",),
            hardware=HardwareSpec(gpu=agent_gpu),
        ),
    )


@dataclass
class HeteroFleetResult:
    """The executed hardware-layout grid plus its planner views."""

    result: StudyResult
    chat_slo_s: float

    def rows(self) -> List[Dict[str, object]]:
        return self.result.tabulate(HETERO_METRICS)

    def format(self) -> str:
        return self.result.format(
            f"Hardware layouts on the chat+agent mixture "
            f"(chat p95 SLO {self.chat_slo_s:g}s)",
            HETERO_METRICS,
        )

    def frontier(self, traffic: Optional[str] = None) -> List[ParetoPoint]:
        """$/1k-tokens vs chat-attainment frontier (optionally per shape)."""
        return self.planner(traffic).frontier

    def planner(self, traffic: Optional[str] = None) -> FleetPlanner:
        """A planner over this study (optionally one traffic slice)."""
        view = self.result if traffic is None else self.result.slice(traffic=traffic)
        return FleetPlanner(
            view,
            cost="cost_per_1k_tokens",
            quality="class_attainment:chat",
            minimize_quality=False,
        )

    def plan(self, cost_budget: float, traffic: Optional[str] = None) -> FleetPlan:
        """The best-attainment layout within a $/1k-tokens budget."""
        return self.planner(traffic).plan_for_budget(cost_budget)

    def format_frontier(self, traffic: str) -> str:
        rows = [
            {
                "fleet": entry.point.labels.get("fleet", "?"),
                "usd_per_1k_tok": entry.cost,
                "chat_attainment": entry.quality,
                "cost_usd": entry.point.metric("cost_usd"),
            }
            for entry in self.frontier(traffic)
        ]
        return format_table(
            rows,
            f"Pareto frontier under {traffic} traffic ($/1k tokens vs chat attainment)",
        )

    def frontier_fleets(self, traffic: str) -> List[str]:
        """The fleet labels on the frontier, cheapest first."""
        return [entry.point.labels.get("fleet", "?") for entry in self.frontier(traffic)]

    def fleet_metric(self, traffic: str, fleet: str, metric: object) -> float:
        """One metric of one (traffic, fleet) grid point."""
        view = self.result.slice(traffic=traffic, fleet=fleet)
        if not view.points:
            raise ValueError(f"no grid point traffic={traffic!r} fleet={fleet!r}")
        return view.points[0].metric(metric)

    def mixed_dominates(
        self, traffic: str, mixed: str = "mixed-h100-l4", homogeneous: str = "a100-heavy"
    ) -> bool:
        """Does the mixed fleet dominate the attainment-matched A100 fleet?

        True when the mixed layout serves tokens no more expensively while
        holding chat attainment at least as high (strictly better in at
        least one) -- i.e. the homogeneous layout cannot sit on the
        frontier while the mixed one can.
        """
        mixed_cost = self.fleet_metric(traffic, mixed, "cost_per_1k_tokens")
        mixed_quality = self.fleet_metric(traffic, mixed, "class_attainment:chat")
        homog_cost = self.fleet_metric(traffic, homogeneous, "cost_per_1k_tokens")
        homog_quality = self.fleet_metric(traffic, homogeneous, "class_attainment:chat")
        return (
            mixed_cost <= homog_cost
            and mixed_quality >= homog_quality
            and (mixed_cost < homog_cost or mixed_quality > homog_quality)
        )


def hetero_fleet_study(
    qps: float = 1.0,
    num_requests: int = 48,
    chat_weight: float = 0.6,
    agent_weight: float = 0.4,
    chat_slo_s: float = 10.0,
    fleets: Sequence[Tuple[str, str, int, str, int]] = DEFAULT_FLEETS,
    burst_shape: Optional[RateShape] = None,
    task_pool_size: int = 10,
    seed: int = 0,
    parallel: int = 1,
) -> HeteroFleetResult:
    """Sweep hardware layouts x traffic shapes on the chat+agent mixture.

    ``fleets`` lists (label, chat GPU, chat replicas, agent GPU, agent
    replicas) candidates from the GPU catalog; the traffic axis compares
    steady arrivals against a square-wave burst.  Arrival process, the
    mixture, schedulers, and seed are held fixed, so cost and attainment
    differences are attributable to the hardware layout (and, across the
    other axis, the traffic program).
    """
    if burst_shape is None:
        burst_shape = SquareWaveShape(
            base_level=0.5, burst_level=2.5, period_s=24.0, burst_start_s=8.0,
            burst_s=8.0,
        )
    base = ExperimentSpec(
        pools=_fleet_layout(*fleets[0][1:]),
        workloads=(
            WeightedWorkload(
                agent="chatbot", workload="sharegpt", weight=chat_weight, name="chat"
            ),
            WeightedWorkload(
                agent="react", workload="hotpotqa", weight=agent_weight, name="agent"
            ),
        ),
        agent_config=AgentConfig(max_iterations=5),
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps,
            num_requests=num_requests,
            task_pool_size=task_pool_size,
        ),
        measurement=MeasurementSpec(class_slos=(("chat", chat_slo_s),)),
        seed=seed,
    )
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(
                name="traffic",
                field="arrival.shape",
                values=(ConstantShape(), burst_shape),
                labels=("steady", "burst"),
            ),
            StudyAxis(
                name="fleet",
                field="pools",
                values=tuple(_fleet_layout(*fleet[1:]) for fleet in fleets),
                labels=tuple(fleet[0] for fleet in fleets),
            ),
        ),
        name="hetero-fleet",
    )
    return HeteroFleetResult(
        result=run_study(study, parallel=parallel), chat_slo_s=chat_slo_s
    )
