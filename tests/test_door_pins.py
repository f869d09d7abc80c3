"""Exact pins of every door policy and autoscaler mode, end to end.

Each spec below is a small chat + ReAct mixture that drives one admission
policy, overload action or autoscaler mode into the branch it exists for
(requests delayed, requests rejected, or replicas scaled).  The observed
values -- ``summary()``, ``per_class_admission()``, ``per_pool_summary()``,
the latency and admission-delay vectors, the scaling-event timeline and
the per-decile tenant throttle rates -- are compared with ``==`` against
``door_pins.json``, which was recorded once and is never regenerated: a
change to how the door or the autoscaler is built or wired must leave
every one of these values where it was.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.agents import AgentConfig
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    MeasurementSpec,
    TenantSpec,
    WeightedWorkload,
    run_experiment,
)

PINS_PATH = Path(__file__).with_name("door_pins.json")


def mixture(qps: float = 6.0, num_users: int = 20, **overrides) -> ExperimentSpec:
    """A chat 0.6 / ReAct 0.4 mixture of 24 Poisson arrivals, 20 tenants."""
    return ExperimentSpec(
        workloads=(
            WeightedWorkload(
                agent="chatbot", workload="sharegpt", weight=0.6, name="chat"
            ),
            WeightedWorkload(
                agent="react", workload="hotpotqa", weight=0.4, name="agent"
            ),
        ),
        agent_config=AgentConfig(max_iterations=4),
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps,
            num_requests=24,
            task_pool_size=12,
            tenants=TenantSpec(num_users=num_users),
        ),
        measurement=MeasurementSpec(class_slos=(("chat", 6.0),)),
        max_num_seqs=4,
        seed=3,
        **overrides,
    )


def shed_agents(**shed) -> AdmissionSpec:
    """Default door for chat; agent traffic behind an slo-shed gate protecting chat."""
    return AdmissionSpec(
        per_class=(
            ("agent", AdmissionSpec(policy="slo-shed", protect_class="chat", **shed)),
        )
    )


def oit_throttle(overload_action: str) -> ExperimentSpec:
    # Three users at 1 qps with pressure thresholds any load crosses, so the
    # per-user window (one admission per 30 s) is what decides.
    return mixture(
        qps=1.0,
        num_users=3,
        admission=AdmissionSpec(
            policy="oit-throttle",
            user_rpm=2.0,
            kv_threshold=0.01,
            queue_threshold=0.1,
            overload_action=overload_action,
        ),
    )


def predictive(forecaster: str) -> ExperimentSpec:
    return mixture(
        autoscaler=AutoscalerSpec(
            mode="predictive",
            forecaster=forecaster,
            max_replicas=3,
            check_interval_s=1.0,
            warmup_s=2.0,
            horizon_s=6.0,
        )
    )


#: name -> (spec, the branch it must reach)
SPECS = {
    "unlimited": (mixture(admission=AdmissionSpec(policy="unlimited")), "open"),
    "concurrency": (
        mixture(admission=AdmissionSpec(policy="concurrency", max_concurrency=2)),
        "delayed",
    ),
    "token-bucket-delay": (
        mixture(admission=AdmissionSpec(policy="token-bucket", rate_qps=2.0, burst=2)),
        "delayed",
    ),
    "token-bucket-reject": (
        mixture(
            admission=AdmissionSpec(
                policy="token-bucket", rate_qps=2.0, burst=2, overload_action="reject"
            )
        ),
        "rejected",
    ),
    "slo-shed-reject": (mixture(admission=shed_agents(slo_p95_s=3.0)), "rejected"),
    "slo-shed-delay": (
        mixture(admission=shed_agents(slo_p95_s=3.0, overload_action="delay")),
        "delayed",
    ),
    "slo-shed-cooperative": (
        mixture(
            admission=shed_agents(slo_p95_s=3.0, cooperative=True),
            autoscaler=AutoscalerSpec(
                max_replicas=3, check_interval_s=1.0, warmup_s=2.0, horizon_s=6.0
            ),
        ),
        "rejected",
    ),
    "oit-throttle-reject": (oit_throttle("reject"), "rejected"),
    "oit-throttle-delay": (oit_throttle("delay"), "delayed"),
    "reactive-slo": (
        mixture(
            autoscaler=AutoscalerSpec(
                max_replicas=3, check_interval_s=1.0, warmup_s=2.0, p95_slo_s=4.0
            )
        ),
        "scaled",
    ),
    "predictive-holt": (predictive("holt"), "scaled"),
    "predictive-ewma": (predictive("ewma"), "scaled"),
    "predictive-windowed-rate": (predictive("windowed-rate"), "scaled"),
}


def observe(result) -> dict:
    """Everything the door and the autoscaler can move, JSON-canonical."""
    observed = {
        "summary": result.summary(),
        "per_class_admission": result.per_class_admission(),
        "per_pool_summary": result.per_pool_summary(),
        "latencies": result.latencies,
        "admission_delays": result.admission_delays,
        "scaling_events": [
            dataclasses.astuple(event) for event in result.serving.scaling_events
        ],
        "decile_throttle_rates": result.tenant_stats.decile_throttle_rates(),
    }
    # Floats survive the round trip exactly (repr is shortest round-trip).
    return json.loads(json.dumps(observed))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_every_spec_is_pinned(pins):
    assert sorted(pins) == sorted(SPECS)


@pytest.mark.parametrize("name", list(SPECS))
def test_door_is_pinned(name, pins):
    spec, branch = SPECS[name]
    result = run_experiment(spec)
    observed = observe(result)
    for key, expected in pins[name].items():
        assert observed[key] == expected, key
    if branch == "open":
        assert result.num_queued == 0 and result.num_rejected == 0
    elif branch == "delayed":
        assert result.num_queued > 0
    elif branch == "rejected":
        assert result.num_rejected > 0
    else:
        assert result.serving.scaling_events
