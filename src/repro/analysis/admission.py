"""Admission-policy study under the Table IV mixed chat+agent burst.

The paper's datacenter scenario assumes interactive chat latency survives
while agentic traffic saturates the fleet.  This study drives one shared
replica pool with a weighted chat+agent mixture at burst load and sweeps the
admission policy guarding the door:

* ``unlimited``    -- the open door (no protection),
* ``concurrency``  -- a global in-flight cap (a blunt, golden-pinned gate),
* ``token-bucket`` -- the agent class rate-limited to a fixed budget,
* ``slo-shed``     -- agent work shed whenever the projected chat p95
  violates the SLO declared in ``MeasurementSpec`` (deadline-aware).

Every spec shares the scheduler, router, seed, and arrival plan, so the
per-policy deltas in chat p95 / SLO attainment and agent rejection rate are
attributable to admission control alone.  ``examples/admission.py`` prints
the resulting table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.reporting import format_table
from repro.analysis.study_view import StudyView, chat_agent_mixture
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    ResultSet,
    StudyAxis,
    StudySpec,
    run_study,
)

#: Policies the study sweeps by default, in presentation order.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "unlimited",
    "concurrency",
    "token-bucket",
    "slo-shed",
)


def _chat_slo_met(outcome: ResultSet) -> bool:
    """Did the measured chat p95 stay within the chat class's declared SLO?"""
    chat = outcome.classes.get("chat")
    slo = outcome.spec.measurement.slo_for("chat")
    return chat is not None and chat.p95_latency <= slo


class AdmissionStudyResult(StudyView):
    """Per-policy outcomes of the admission sweep (chat SLO vs agent shed)."""

    METRICS = (
        ("chat_p95_s", "p95_latency:chat"),
        ("chat_slo_met", _chat_slo_met),
        ("chat_attainment", "slo_attainment:chat"),
        ("agent_p95_s", "p95_latency:agent"),
        ("agent_rejected", "num_rejected:agent"),
        ("agent_rejection_rate", "rejection_rate:agent"),
        ("shed_tokens", "shed_tokens"),
        ("completed", "num_completed"),
        ("energy_wh", "energy_wh"),
    )

    def chat_slo_held(self, policy: str) -> bool:
        """Did ``policy`` keep the measured chat p95 within the declared SLO?"""
        return self.metric(_chat_slo_met, policy=policy)

    def format(self) -> str:
        parts = [super().format()]
        for point in self.result.slice(policy="slo-shed").points:
            parts.append(
                format_table(
                    point.outcome.per_class_admission(),
                    "slo-shed door accounting (per traffic class)",
                )
            )
        return "\n\n".join(parts)


def _admission_for(
    policy: str,
    max_concurrency: int,
    agent_rate_qps: float,
    shed_window_s: float,
) -> Optional[AdmissionSpec]:
    """The admission spec the study uses for one swept policy."""
    if policy == "unlimited":
        return None
    if policy == "concurrency":
        return AdmissionSpec(policy="concurrency", max_concurrency=max_concurrency)
    if policy == "token-bucket":
        # Only the agent class is rate-limited; chat stays on the open door.
        return AdmissionSpec(
            per_class=(
                (
                    "agent",
                    AdmissionSpec(
                        policy="token-bucket",
                        rate_qps=agent_rate_qps,
                        burst=2,
                        overload_action="reject",
                    ),
                ),
            )
        )
    if policy == "slo-shed":
        # Shed agent work whenever the projected chat p95 violates the SLO
        # declared in MeasurementSpec (inherited via protect_class).
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
                    ),
                ),
            )
        )
    raise ValueError(f"admission study does not know policy {policy!r}")


def admission_study(
    qps: float = 10.0,
    num_requests: int = 70,
    chat_slo_s: float = 16.0,
    chat_weight: float = 0.5,
    agent_weight: float = 0.5,
    replicas: int = 2,
    warmup_requests: int = 10,
    max_concurrency: int = 8,
    agent_rate_qps: float = 0.3,
    shed_window_s: float = 20.0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 0,
) -> AdmissionStudyResult:
    """Sweep admission policies on a shared pool under a chat+agent burst.

    The mixture, arrival burst, scheduler (SJF by predicted decode), router,
    and seed are identical across policies; ``MeasurementSpec`` declares the
    chat p95 SLO and opens the measured window after ``warmup_requests``
    completions so the cold ramp does not dilute the steady-state comparison.
    """
    base = ExperimentSpec(
        workloads=chat_agent_mixture(chat_weight, agent_weight),
        replicas=replicas,
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
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(
                name="policy",
                field="admission",
                values=tuple(
                    _admission_for(
                        policy, max_concurrency, agent_rate_qps, shed_window_s
                    )
                    for policy in policies
                ),
                labels=tuple(policies),
            ),
        ),
        name="admission",
    )
    return AdmissionStudyResult(
        result=run_study(study),
        title=(
            f"Admission policies under the chat+agent burst "
            f"(chat p95 SLO {chat_slo_s:.0f}s)"
        ),
    )
