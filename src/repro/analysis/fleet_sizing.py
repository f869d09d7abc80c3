"""Cost-optimal fleet sizing: pool layouts x traffic shapes, Pareto-queried.

The paper's Table IV datacenter scenario implies a capacity-planning
question it never answers: *which fleet should you buy* for a given traffic
mixture?  This study makes it concrete with the declarative study
machinery: a :class:`~repro.api.StudySpec` sweeps pool layouts (the
``pools`` axis: replica splits between a chat pool and an agent pool,
lean to heavy) against traffic programs (the ``arrival.shape`` axis:
steady vs agent-hour burst) over the weighted chat+agent mixture, and the
:class:`~repro.api.StudyResult` answers with the Pareto frontier of
replica-seconds (the cost of the fleet) vs chat p95 latency (the quality
the interactive class experiences).

The headline read: under steady traffic a lean fleet sits on the
frontier -- paying for more replicas buys little chat latency -- while
under the burst the lean fleet's chat p95 collapses and the frontier
shifts toward the heavier splits.  ``examples/fleet_sizing.py`` prints the
grid and both frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.reporting import format_table
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
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

#: Metric columns the fleet-sizing tables report.
FLEET_METRICS: Tuple[Tuple[str, object], ...] = (
    ("completed", "num_completed"),
    ("chat_p95_s", "class_p95:chat"),
    ("agent_p95_s", "class_p95:agent"),
    ("replica_seconds", "replica_seconds"),
    ("energy_wh", "energy_wh"),
    ("throughput_qps", "throughput_qps"),
)


def _pool_layout(chat_replicas: int, agent_replicas: int) -> Tuple[PoolSpec, ...]:
    """One fleet candidate: a chat pool + an SJF/prefix-affinity agent pool."""
    return (
        PoolSpec(
            name="chat",
            model="8b",
            replicas=chat_replicas,
            router="least-loaded",
            traffic_classes=("chat",),
        ),
        PoolSpec(
            name="agent",
            model="8b",
            replicas=agent_replicas,
            scheduler="sjf-by-predicted-decode",
            router="prefix-affinity",
            traffic_classes=("agent",),
        ),
    )


@dataclass
class FleetSizingResult:
    """The executed fleet-sizing grid plus its Pareto views."""

    result: StudyResult
    chat_slo_s: float

    def rows(self) -> List[Dict[str, object]]:
        return self.result.tabulate(FLEET_METRICS)

    def format(self) -> str:
        return self.result.format(
            f"Fleet sizing on the chat+agent mixture (chat p95 SLO {self.chat_slo_s:g}s)",
            FLEET_METRICS,
        )

    def frontier(self, traffic: Optional[str] = None) -> List[ParetoPoint]:
        """Replica-seconds vs chat-p95 Pareto frontier (optionally per shape)."""
        view = self.result if traffic is None else self.result.slice(traffic=traffic)
        return view.pareto_frontier(cost="replica_seconds", quality="class_p95:chat")

    def format_frontier(self, traffic: str) -> str:
        rows = [
            {
                "fleet": entry.point.labels.get("fleet", "?"),
                "replica_seconds": entry.cost,
                "chat_p95_s": entry.quality,
                "agent_p95_s": entry.point.metric("class_p95:agent"),
            }
            for entry in self.frontier(traffic)
        ]
        return format_table(
            rows, f"Pareto frontier under {traffic} traffic (cost vs chat p95)"
        )

    def frontier_fleets(self, traffic: str) -> List[str]:
        """The fleet labels on the frontier, cheapest first."""
        return [entry.point.labels.get("fleet", "?") for entry in self.frontier(traffic)]


def fleet_sizing_study(
    qps: float = 6.0,
    num_requests: int = 48,
    chat_weight: float = 0.6,
    agent_weight: float = 0.4,
    chat_slo_s: float = 16.0,
    fleets: Sequence[Tuple[int, int]] = ((1, 2), (1, 3), (2, 2), (3, 3)),
    burst_shape: Optional[RateShape] = None,
    task_pool_size: int = 10,
    seed: int = 0,
) -> FleetSizingResult:
    """Sweep fleet layouts x traffic shapes on the Table IV mixture.

    ``fleets`` lists (chat_replicas, agent_replicas) candidates, lean to
    heavy (the default set includes a misbalanced ``chat1+agent3`` fleet
    the burst is expected to push off the frontier); the traffic axis
    compares steady arrivals against a square-wave burst at 6x the base
    level for a third of each period.  Everything else -- mixture,
    scheduler policies, seed -- is held fixed, so the frontier movement is
    attributable to the traffic program alone.
    """
    if burst_shape is None:
        burst_shape = SquareWaveShape(
            base_level=0.5, burst_level=3.0, period_s=24.0, burst_start_s=8.0,
            burst_s=8.0,
        )
    base = ExperimentSpec(
        pools=_pool_layout(*fleets[0]),
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
                values=tuple(_pool_layout(chat, agent) for chat, agent in fleets),
                labels=tuple(f"chat{chat}+agent{agent}" for chat, agent in fleets),
            ),
        ),
        name="fleet-sizing",
    )
    return FleetSizingResult(result=run_study(study), chat_slo_s=chat_slo_s)
