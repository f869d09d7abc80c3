"""The metric registry and the traffic-class slices.

Every scalar ``ResultSet`` metric is declared once in ``METRICS`` with a
unit and a scope, and a traffic class's metrics are the same metrics over
its slice (``ResultSet.classes``).  ``reference_class_rows`` keeps the
per-class record the slices replaced -- the driver-side per-class
computation and its row -- so ``per_class_summary()`` is checked against
it field for field, types included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, get_type_hints

import pytest

from repro.agents import AgentConfig, AgentRunResult
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    ResultSet,
    resolve_metric,
    run_experiment,
)
from repro.api.results import METRICS
from repro.core.metrics import LatencyBreakdown, mean, percentile
from tests.test_admission import MIXTURE


# ---------------------------------------------------------------------------
# The reference: the per-class record the slices replaced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficClassStats:
    label: str
    num_completed: int
    mean_latency_s: float
    p95_latency_s: float
    throughput_qps: float
    accuracy: float
    offered: int = 0
    rejected: int = 0
    shed_tokens: float = 0.0
    slo_p95_s: Optional[float] = None
    slo_attainment: Optional[float] = None

    @property
    def rejection_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "class": self.label,
            "completed": self.num_completed,
            "mean_latency_s": self.mean_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "throughput_qps": self.throughput_qps,
            "accuracy": self.accuracy,
            "offered": self.offered,
            "rejected": self.rejected,
            "rejection_rate": self.rejection_rate,
        }
        if self.slo_p95_s is not None:
            row["slo_p95_s"] = self.slo_p95_s
            row["slo_attainment"] = self.slo_attainment
        return row


def reference_class_rows(result: ResultSet) -> List[Dict[str, object]]:
    """The per-class rows as the serving driver used to build them."""
    admission = result.admission_stats
    measured: List[AgentRunResult] = result.runs
    duration = result.serving.duration
    groups: Dict[str, List[AgentRunResult]] = {}
    for run in measured:
        label = run.metadata.get("traffic_class")
        if label is not None:
            groups.setdefault(label, []).append(run)
    # Classes whose every request was shed still get a row: a 100%
    # rejection rate must not disappear from the per-class report.
    for label in admission:
        if label and label not in groups:
            groups.setdefault(label, [])
    stats: Dict[str, TrafficClassStats] = {}
    for label, results in groups.items():
        latencies = [run.e2e_latency for run in results]
        door = admission.get(label)
        slo = result.spec.measurement.slo_for(label)
        attainment = None
        if slo is not None and latencies:
            attainment = mean([1.0 if latency <= slo else 0.0 for latency in latencies])
        stats[label] = TrafficClassStats(
            label=label,
            num_completed=len(results),
            mean_latency_s=mean(latencies),
            p95_latency_s=percentile(latencies, 95.0),
            throughput_qps=len(results) / duration,
            accuracy=mean([1.0 if run.answer_correct else 0.0 for run in results]),
            offered=door.offered if door is not None else len(results),
            rejected=door.rejected if door is not None else 0,
            shed_tokens=door.shed_tokens if door is not None else 0.0,
            slo_p95_s=slo,
            slo_attainment=attainment,
        )
    return [entry.as_dict() for entry in stats.values()]


def typed(rows: List[Dict[str, object]]) -> List[List[tuple]]:
    """Rows as (key, type, value) triples: ``8`` and ``8.0`` differ here."""
    return [[(key, type(value), value) for key, value in row.items()] for row in rows]


def agent_door(**policy) -> AdmissionSpec:
    return AdmissionSpec(per_class=(("agent", AdmissionSpec(**policy)),))


SLO_SHED = dict(policy="slo-shed", protect_class="chat", window_s=20.0)
TOKEN_BUCKET = dict(policy="token-bucket", burst=1, overload_action="reject")

SPECS = {
    "open-door": ExperimentSpec(**MIXTURE),
    "slo-shed": ExperimentSpec(
        measurement=MeasurementSpec(class_slos=(("chat", 6.0),)),
        admission=agent_door(**SLO_SHED),
        **MIXTURE,
    ),
    "slo-shed-warmup": ExperimentSpec(
        measurement=MeasurementSpec(
            class_slos=(("chat", 6.0),), slo_p95_s=30.0, warmup_requests=4
        ),
        admission=agent_door(**SLO_SHED),
        **MIXTURE,
    ),
    "token-bucket-warmup": ExperimentSpec(
        measurement=MeasurementSpec(slo_p95_s=8.0, warmup_requests=3),
        admission=agent_door(rate_qps=0.01, **TOKEN_BUCKET),
        **MIXTURE,
    ),
    "empty-class": ExperimentSpec(
        **{
            **MIXTURE,
            "agent_config": AgentConfig(max_iterations=2),
            "measurement": MeasurementSpec(
                class_slos=(("agent", 30.0),), warmup_requests=6
            ),
            "admission": agent_door(rate_qps=1e-6, **TOKEN_BUCKET),
        }
    ),
}


@pytest.fixture(scope="module")
def outcomes() -> Dict[str, ResultSet]:
    return {name: run_experiment(spec) for name, spec in SPECS.items()}


@pytest.fixture(scope="module")
def characterization() -> ResultSet:
    return run_experiment(
        ExperimentSpec(
            agent="react",
            workload="hotpotqa",
            agent_config=AgentConfig(max_iterations=3),
            arrival=ArrivalSpec(process="single", num_requests=2),
        )
    )


class TestClassSlices:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_per_class_rows_match_the_reference(self, outcomes, name):
        outcome = outcomes[name]
        assert outcome.per_class_summary()
        assert typed(outcome.per_class_summary()) == typed(
            reference_class_rows(outcome)
        )

    def test_a_class_that_completed_nothing_keeps_its_row(self, outcomes):
        rows = {row["class"]: row for row in outcomes["empty-class"].per_class_summary()}
        agent = rows["agent"]
        assert (agent["completed"], agent["offered"], agent["rejected"]) == (0, 8, 7)
        assert agent["slo_attainment"] is None

    def test_a_flat_spec_has_no_classes(self, characterization):
        assert characterization.classes == {}
        assert characterization.per_class_summary() == []

    def test_slices_partition_the_runs(self, outcomes):
        outcome = outcomes["slo-shed"]
        assert list(outcome.classes) == ["chat", "agent"]
        assert sum(len(view.runs) for view in outcome.classes.values()) == len(
            outcome.runs
        )
        for label, view in outcome.classes.items():
            assert view.traffic_class == label
            assert list(view.admission_stats) == [label]


    def test_breakdowns_are_computed_once_per_result(self, outcomes):
        outcome = outcomes["open-door"]
        whole = outcome.latency_breakdown()
        assert outcome.latency_breakdown() is whole
        assert outcome.token_breakdown() is outcome.token_breakdown()
        assert outcome.gpu_breakdown() is outcome.gpu_breakdown()
        # The stored values are no part of the result's equality or repr.
        unread = replace(outcome)
        assert unread == outcome and repr(unread) == repr(outcome)
        # Each class slice computes its own, over its own runs.
        agent = outcome.classes["agent"]
        assert agent.latency_breakdown() == LatencyBreakdown.average(
            LatencyBreakdown.from_result(run) for run in agent.runs
        )
        assert agent.latency_breakdown() != whole


class TestRegistry:
    def test_every_scalar_property_is_declared(self):
        scalar_types = (int, float, Optional[int], Optional[float])
        scalar = {
            name
            for name, member in vars(ResultSet).items()
            if isinstance(member, property)
            and get_type_hints(member.fget)["return"] in scalar_types
        }
        assert scalar == set(METRICS)
        assert len(METRICS) == 42
        assert {scope for _, scope in METRICS.values()} == {"run", "door", "fleet"}

    def test_every_metric_resolves_on_both_kinds(self, outcomes, characterization):
        for outcome in (characterization, outcomes["slo-shed"]):
            for name in METRICS:
                assert resolve_metric(outcome, name, missing_ok=True) == getattr(
                    outcome, name
                )

    def test_counts_resolve_as_ints(self, outcomes, characterization):
        counts = [
            name
            for name in METRICS
            if get_type_hints(getattr(ResultSet, name).fget)["return"]
            in (int, Optional[int])
        ]
        assert "num_completed" in counts and "num_rejected" in counts
        for outcome in (characterization, outcomes["slo-shed"]):
            for name in counts:
                value = resolve_metric(outcome, name, missing_ok=True)
                assert value is None or type(value) is int, name

    def test_class_form_reads_the_slice(self, outcomes):
        outcome = outcomes["slo-shed"]
        for name, (_, scope) in METRICS.items():
            if scope == "fleet":
                continue
            for label, view in outcome.classes.items():
                assert resolve_metric(
                    outcome, f"{name}:{label}", missing_ok=True
                ) == getattr(view, name)
        assert type(outcome.metric("num_completed:chat")) is int

    def test_fleet_metrics_have_no_class_form(self, outcomes):
        outcome = outcomes["slo-shed"]
        chat = outcome.classes["chat"]
        for name, (_, scope) in METRICS.items():
            if scope != "fleet":
                continue
            with pytest.raises(ValueError, match="fleet-wide"):
                outcome.metric(f"{name}:chat")
            with pytest.raises(ValueError, match="fleet-wide"):
                getattr(chat, name)

    @pytest.mark.parametrize(
        "name, message",
        [
            *(
                pytest.param(name, "no metric", id=name)
                for name in (
                    "spec", "runs", "latencies", "summary", "pool_stats", "kind",
                    "nope:chat",
                )
            ),
            pytest.param("replica_seconds:chat", "fleet-wide", id="replica_seconds:chat"),
        ],
    )
    def test_a_name_that_is_not_a_metric_raises(self, outcomes, name, message):
        # missing_ok tolerates an absent value, never a name outside the
        # vocabulary.
        for missing_ok in (False, True):
            with pytest.raises(ValueError, match=message):
                resolve_metric(outcomes["open-door"], name, missing_ok=missing_ok)
