"""Predictive scale-ahead vs reactive autoscaling under the Table IV burst.

The paper's datacenter scenario (Table IV) gestures at a capacity-planning
question this study makes concrete: over a chat+agent burst, how much does
*anticipating* demand (arrival-rate forecasting + scale-ahead) buy over
*reacting* to it (queue depth), and what happens when admission control and
the autoscaler cooperate instead of working the same burst independently?

Three controller configurations share one autoscaled pool, one weighted
chat+agent mixture, one arrival plan, and one declared chat p95 SLO:

* ``reactive``    -- the PR-3 state of the art: queue-depth autoscaling,
  with ``slo-shed`` admission shedding agent work on the *current* backlog
  projection (the two controllers are blind to each other),
* ``predictive``  -- the autoscaler forecasts the arrival rate
  (:mod:`repro.serving.forecast`) and provisions replicas a warm-up ahead
  of the burst; admission still sheds on the current projection,
* ``cooperative`` -- predictive scale-ahead *plus* a cooperative gate: the
  shed projection credits in-flight scale-ups landing within the forecast
  horizon, so agent work is shed only when warm replicas cannot catch up
  (and admitted again as they land).

Reported per configuration: chat p95 / SLO attainment, agent rejection
rate, replica-seconds (the cost of elasticity), forecast error, and the
scale-ahead lead time (the head start prediction bought over the reactive
trigger).  ``examples/predictive_scaling.py`` prints the table;
``benchmarks/test_predictive_scaling.py`` pins the qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.reporting import format_table
from repro.analysis.study_view import chat_agent_mixture, predictive_autoscaler
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    MeasurementSpec,
    ResultSet,
    run_experiment,
)

#: Controller configurations the study sweeps by default, in presentation order.
DEFAULT_MODES: Tuple[str, ...] = ("reactive", "predictive", "cooperative")


@dataclass
class PredictiveScalingResult:
    """Per-configuration outcomes of the scale-ahead study."""

    outcomes: Dict[str, ResultSet]
    chat_slo_s: float

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for mode, outcome in self.outcomes.items():
            chat = outcome.classes.get("chat")
            agent = outcome.classes.get("agent")
            rows.append(
                {
                    "mode": mode,
                    "chat_p95_s": chat.p95_latency if chat else 0.0,
                    "chat_attainment": (
                        chat.slo_attainment
                        if chat and chat.slo_attainment is not None
                        else 0.0
                    ),
                    "agent_rejection_rate": agent.rejection_rate if agent else 0.0,
                    "agent_rejected": agent.num_rejected if agent else 0,
                    "replica_seconds": outcome.replica_seconds,
                    "forecast_mae": outcome.forecast_mae,
                    "scale_ahead_lead_s": outcome.scale_ahead_lead_s,
                    "energy_wh": outcome.energy_wh,
                    "completed": outcome.num_completed,
                }
            )
        return rows

    # -- comparisons ---------------------------------------------------------
    def chat_attainment(self, mode: str) -> float:
        chat = self.outcomes[mode].classes.get("chat")
        if chat is None or chat.slo_attainment is None:
            return 0.0
        return chat.slo_attainment

    def agent_rejection_rate(self, mode: str) -> float:
        agent = self.outcomes[mode].classes.get("agent")
        return agent.rejection_rate if agent is not None else 0.0

    def replica_seconds(self, mode: str) -> float:
        return self.outcomes[mode].replica_seconds

    def beats_reactive(self, mode: str = "cooperative") -> bool:
        """Does ``mode`` beat the reactive baseline on cost or shed load at
        equal-or-better chat SLO attainment?

        The trade the study is after: fewer replica-seconds *or* a lower
        agent rejection rate, without giving up chat SLO attainment.
        """
        if self.chat_attainment(mode) < self.chat_attainment("reactive"):
            return False
        return (
            self.replica_seconds(mode) < self.replica_seconds("reactive")
            or self.agent_rejection_rate(mode)
            < self.agent_rejection_rate("reactive")
        )

    def format(self) -> str:
        return format_table(
            self.rows(),
            f"Scale-ahead autoscaling under the chat+agent burst "
            f"(chat p95 SLO {self.chat_slo_s:.0f}s)",
        )


def _autoscaler_for(
    mode: str,
    *,
    min_replicas: int,
    max_replicas: int,
    warmup_s: float,
    horizon_s: float,
    forecaster: str,
) -> AutoscalerSpec:
    """The autoscaler spec the study uses for one swept configuration."""
    base = dict(
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        check_interval_s=1.0,
        warmup_s=warmup_s,
        scale_up_pending_per_replica=5.0,
        scale_down_pending_per_replica=0.5,
    )
    if mode == "reactive":
        return AutoscalerSpec(**base)
    return predictive_autoscaler(forecaster, horizon_s=horizon_s, **base)


def _admission_for(mode: str, shed_window_s: float) -> AdmissionSpec:
    """Agent class on slo-shed protecting chat; cooperative only when asked."""
    return AdmissionSpec(
        per_class=(
            (
                "agent",
                AdmissionSpec(
                    policy="slo-shed",
                    protect_class="chat",
                    window_s=shed_window_s,
                    enter_factor=0.75,
                    exit_factor=0.5,
                    cooperative=(mode == "cooperative"),
                ),
            ),
        )
    )


def predictive_scaling_study(
    qps: float = 6.0,
    num_requests: int = 60,
    chat_slo_s: float = 16.0,
    chat_weight: float = 0.5,
    agent_weight: float = 0.5,
    min_replicas: int = 2,
    max_replicas: int = 6,
    warmup_s: float = 6.0,
    horizon_s: float = 10.0,
    forecaster: str = "holt",
    shed_window_s: float = 20.0,
    warmup_requests: int = 10,
    modes: Sequence[str] = DEFAULT_MODES,
    seed: int = 0,
) -> PredictiveScalingResult:
    """Sweep reactive vs predictive vs cooperative on the chat+agent burst.

    The mixture, arrival plan, scheduler (SJF by predicted decode), pool
    bounds, and seed are identical across configurations; only the
    autoscaler mode and the admission gate's cooperativeness vary, so the
    deltas in replica-seconds, agent rejection rate, and chat SLO
    attainment are attributable to the controllers alone.
    """
    base = ExperimentSpec(
        workloads=chat_agent_mixture(chat_weight, agent_weight),
        replicas=min_replicas,
        router="least-loaded",
        scheduler="sjf-by-predicted-decode",
        agent_config=AgentConfig(max_iterations=5),
        arrival=ArrivalSpec(
            process="poisson", qps=qps, num_requests=num_requests, task_pool_size=10
        ),
        measurement=MeasurementSpec(
            class_slos=(("chat", chat_slo_s),), warmup_requests=warmup_requests
        ),
        seed=seed,
    )
    outcomes: Dict[str, ResultSet] = {}
    for mode in modes:
        if mode not in DEFAULT_MODES:
            raise ValueError(
                f"predictive-scaling study does not know mode {mode!r}; "
                f"known: {list(DEFAULT_MODES)}"
            )
        spec = base.with_overrides(
            autoscaler=_autoscaler_for(
                mode,
                min_replicas=min_replicas,
                max_replicas=max_replicas,
                warmup_s=warmup_s,
                horizon_s=horizon_s,
                forecaster=forecaster,
            ),
            admission=_admission_for(mode, shed_window_s),
        )
        outcomes[mode] = run_experiment(spec)
    return PredictiveScalingResult(outcomes=outcomes, chat_slo_s=chat_slo_s)
