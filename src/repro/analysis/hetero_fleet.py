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
:meth:`~repro.analysis.study_view.FrontierView.best_within` then selects the
mixed layout under a cost budget.  ``examples/hetero_fleet.py`` prints the
grid, the frontier, and that pick.
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

#: Fleet candidates: (label, chat GPU, chat replicas, agent GPU, agent
#: replicas).  The homogeneous A100 pair brackets the mixed fleet -- lean
#: (cheap, SLO-fragile) and heavy (sized until chat attainment matches the
#: mixed fleet, at A100 rates for every agent token).
DEFAULT_FLEETS: Tuple[Tuple[str, str, int, str, int], ...] = (
    ("a100-lean", "A100-40GB", 1, "A100-40GB", 2),
    ("a100-heavy", "A100-40GB", 4, "A100-40GB", 2),
    ("mixed-h100-l4", "H100-80GB", 1, "L4", 2),
)


class HeteroFleetResult(FrontierView):
    """The executed hardware-layout grid: $/1k tokens vs chat attainment."""

    METRICS = (
        ("completed", "num_completed"),
        ("chat_attainment", "slo_attainment:chat"),
        ("chat_p95_s", "p95_latency:chat"),
        ("cost_usd", "cost_usd"),
        ("usd_per_1k_tok", "cost_per_1k_tokens"),
        ("energy_wh", "energy_wh"),
    )
    COST, QUALITY, MINIMIZE_QUALITY = "usd_per_1k_tok", "chat_attainment", False
    FRONTIER_AXES = ("fleet",)
    FRONTIER_EXTRAS = ("cost_usd",)
    FRONTIER_TITLE = (
        "Pareto frontier under {traffic} traffic ($/1k tokens vs chat attainment)"
    )

    def mixed_dominates(
        self, traffic: str, mixed: str = "mixed-h100-l4", homogeneous: str = "a100-heavy"
    ) -> bool:
        """Does the mixed fleet dominate the attainment-matched A100 fleet?

        True when the mixed layout serves tokens no more expensively while
        holding chat attainment at least as high (strictly better in at
        least one) -- i.e. the homogeneous layout cannot sit on the
        frontier while the mixed one can.
        """
        mixed_point = self.result.at(traffic=traffic, fleet=mixed)
        homog_point = self.result.at(traffic=traffic, fleet=homogeneous)
        mixed_cost = mixed_point.metric("cost_per_1k_tokens")
        mixed_quality = mixed_point.metric("slo_attainment:chat")
        homog_cost = homog_point.metric("cost_per_1k_tokens")
        homog_quality = homog_point.metric("slo_attainment:chat")
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
    layouts = tuple(
        chat_agent_pools(chat_replicas, agent_replicas, chat_gpu, agent_gpu)
        for _, chat_gpu, chat_replicas, agent_gpu, agent_replicas in fleets
    )
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
                labels=tuple(fleet[0] for fleet in fleets),
            ),
        ),
        name="hetero-fleet",
    )
    return HeteroFleetResult(
        result=run_study(study, parallel=parallel),
        title=(
            f"Hardware layouts on the chat+agent mixture "
            f"(chat p95 SLO {chat_slo_s:g}s)"
        ),
    )
