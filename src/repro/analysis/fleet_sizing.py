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

from typing import Optional, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.study_view import FrontierView, chat_agent_mixture, chat_agent_pools
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    StudyAxis,
    StudySpec,
    run_study,
)
from repro.serving.shapes import ConstantShape, RateShape, SquareWaveShape


class FleetSizingResult(FrontierView):
    """The executed fleet-sizing grid: replica-seconds vs chat p95."""

    METRICS = (
        ("completed", "num_completed"),
        ("chat_p95_s", "p95_latency:chat"),
        ("agent_p95_s", "p95_latency:agent"),
        ("replica_seconds", "replica_seconds"),
        ("energy_wh", "energy_wh"),
        ("throughput_qps", "throughput_qps"),
    )
    COST, QUALITY = "replica_seconds", "chat_p95_s"
    FRONTIER_AXES = ("fleet",)
    FRONTIER_EXTRAS = ("agent_p95_s",)
    FRONTIER_TITLE = "Pareto frontier under {traffic} traffic (cost vs chat p95)"


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
    layouts = tuple(chat_agent_pools(chat, agent) for chat, agent in fleets)
    base = ExperimentSpec(
        pools=layouts[0],
        workloads=chat_agent_mixture(chat_weight, agent_weight),
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
                values=layouts,
                labels=tuple(f"chat{chat}+agent{agent}" for chat, agent in fleets),
            ),
        ),
        name="fleet-sizing",
    )
    return FleetSizingResult(
        result=run_study(study),
        title=f"Fleet sizing on the chat+agent mixture (chat p95 SLO {chat_slo_s:g}s)",
    )
