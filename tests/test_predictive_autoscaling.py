"""Predictive autoscaling + cooperative admission: units, invariants, pins.

Covers the ScalingEvent timeline invariants (monotonic timestamps, warm-up
accounting, cooldown enforcement), the predictive controller's sizing math
and cold-start fallback, the cooperative slo-shed projection, the new spec
vocabulary, and a golden pin: reactive-mode autoscaled runs reproduce the
pre-forecasting (PR-3) numbers bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    MeasurementSpec,
    WeightedWorkload,
    run_experiment,
)
from repro.llm import EngineConfig
from repro.serving.admission import ADMIT, REJECT, SloShedAdmission
from repro.serving.autoscaler import Autoscaler
from repro.serving.cluster import ReplicaPool
from repro.serving.forecast import WindowedRateForecaster
from repro.sim import Environment


class FakePool:
    """Minimal pool surface the Autoscaler control loop drives."""

    def __init__(self, pending: int = 0, provisioned: int = 1):
        self.name = "fake"
        self.num_pending_requests = pending
        self.num_provisioned = provisioned
        self.num_active = provisioned
        self.replicas: List = []
        self.grow_times: List[float] = []
        self.shrink_times: List[float] = []
        self._env: Optional[Environment] = None

    def grow(self, warmup_s: float = 0.0, reason: str = "") -> int:
        self.grow_times.append(self._env.now)
        self.num_provisioned += 1
        self.num_active += 1
        return self.num_provisioned - 1

    def shrink(self, reason: str = "") -> Optional[int]:
        self.shrink_times.append(self._env.now)
        self.num_provisioned -= 1
        self.num_active -= 1
        return self.num_provisioned

    def pending_predicted_tokens(self, predictor) -> float:
        return float(self.num_pending_requests) * 10.0


def make_autoscaler(env: Environment, pool: FakePool, **overrides) -> Autoscaler:
    pool._env = env
    defaults = dict(
        min_replicas=1,
        max_replicas=8,
        check_interval_s=1.0,
        warmup_s=0.0,
        scale_up_pending_per_replica=2.0,
        scale_down_pending_per_replica=0.5,
    )
    defaults.update(overrides)
    return Autoscaler(env, pool, AutoscalerSpec(**defaults))


# ---------------------------------------------------------------------------
# ScalingEvent timeline invariants
# ---------------------------------------------------------------------------


def predictive_spec(**overrides) -> ExperimentSpec:
    base = dict(
        workloads=(
            WeightedWorkload(agent="chatbot", workload="sharegpt", weight=0.5, name="chat"),
            WeightedWorkload(agent="react", workload="hotpotqa", weight=0.5, name="agent"),
        ),
        replicas=2,
        router="least-loaded",
        scheduler="sjf-by-predicted-decode",
        autoscaler=AutoscalerSpec(
            mode="predictive",
            forecaster="holt",
            horizon_s=8.0,
            min_replicas=2,
            max_replicas=5,
            check_interval_s=1.0,
            warmup_s=4.0,
            cooldown_s=2.0,
        ),
        measurement=MeasurementSpec(class_slos=(("chat", 16.0),)),
        arrival=ArrivalSpec(process="poisson", qps=8.0, num_requests=30, task_pool_size=8),
        seed=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestScalingEventTimeline:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_experiment(predictive_spec())

    def test_timestamps_monotonic(self, outcome):
        times = [event.time for event in outcome.serving.scaling_events]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_provisioned_counts_match_action_deltas(self, outcome):
        # Each event snapshots provisioned capacity *after* the action; the
        # sequence must be reproducible from the action deltas alone.
        provisioned = 2  # the pool's starting size
        for event in outcome.serving.scaling_events:
            provisioned += 1 if event.action == "grow" else -1
            assert event.num_provisioned == provisioned
            assert 1 <= event.num_provisioned <= 5

    def test_cooldown_enforced_between_actions(self, outcome):
        events = outcome.serving.scaling_events
        # Batched scale-ahead grows share one decision instant; *across*
        # instants the 2 s cooldown must hold.
        decision_times = sorted({event.time for event in events})
        gaps = [b - a for a, b in zip(decision_times, decision_times[1:])]
        assert all(gap >= 2.0 - 1e-9 for gap in gaps)

    def test_forecast_grows_record_their_reason(self, outcome):
        reasons = [
            event.reason
            for event in outcome.serving.scaling_events
            if event.action == "grow"
        ]
        assert any(reason.startswith("forecast=") for reason in reasons)


class TestWarmupAccounting:
    def test_grown_replica_warms_before_taking_traffic(self):
        env = Environment()
        pool = ReplicaPool(env, EngineConfig(), num_replicas=1)
        index = pool.grow(warmup_s=5.0, reason="test")
        assert pool.num_provisioned == 2
        assert pool.num_active == 1
        assert len(pool.warming_etas) == 1
        assert pool.warming_etas[index] == pytest.approx(5.0)
        # Landing visibility honours the horizon.
        assert pool.warming_replicas_within(0.0, 5.0) == 1
        assert pool.warming_replicas_within(0.0, 3.0) == 0
        env.run(until=6.0)
        assert pool.num_active == 2
        assert not pool.warming_etas

    def test_warming_replica_pays_from_grow_instant(self):
        env = Environment()
        pool = ReplicaPool(env, EngineConfig(), num_replicas=1)
        env.run(until=10.0)
        pool.grow(warmup_s=5.0, reason="test")
        env.run(until=12.0)
        # Original replica: 12 s.  Warming replica: 2 s (paid while booting).
        assert pool.replica_seconds_until() == pytest.approx(14.0)

    def test_instant_grow_skips_warming_state(self):
        env = Environment()
        pool = ReplicaPool(env, EngineConfig(), num_replicas=1)
        pool.grow(warmup_s=0.0, reason="test")
        assert pool.num_active == 2
        assert not pool.warming_etas


class TestCooldownEnforcement:
    def test_reactive_cooldown_spaces_actions(self):
        env = Environment()
        pool = FakePool(pending=100, provisioned=1)
        make_autoscaler(env, pool, cooldown_s=3.0)
        env.run(until=10.5)
        gaps = [b - a for a, b in zip(pool.grow_times, pool.grow_times[1:])]
        assert pool.grow_times  # pressure forced growth
        assert all(gap >= 3.0 - 1e-9 for gap in gaps)

    def test_zero_cooldown_grows_every_heartbeat(self):
        env = Environment()
        pool = FakePool(pending=100, provisioned=1)
        make_autoscaler(env, pool, cooldown_s=0.0, max_replicas=4)
        env.run(until=5.5)
        assert pool.grow_times == [1.0, 2.0, 3.0]  # capped at max_replicas


# ---------------------------------------------------------------------------
# Predictive controller units
# ---------------------------------------------------------------------------


class TestPredictiveController:
    def test_predictive_mode_requires_forecaster(self):
        # Predictive mode builds its forecaster from the spec, which only
        # names registered ones.
        with pytest.raises(ValueError, match="forecaster"):
            AutoscalerSpec(mode="predictive", forecaster="arima")
        scaler = make_autoscaler(Environment(), FakePool(), mode="predictive")
        assert isinstance(scaler.forecaster, WindowedRateForecaster)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown autoscaler mode"):
            AutoscalerSpec(mode="proactive")

    def test_target_replicas_sizes_for_backlog_and_forecast(self):
        env = Environment()
        pool = FakePool(pending=10, provisioned=1)  # backlog: 100 tokens
        autoscaler = make_autoscaler(
            env, pool, mode="predictive", forecaster="none", horizon_s=10.0
        )
        # No completions -> mean tokens/request is 0, so demand is backlog
        # only: 100 tokens / (5 tokens/s * 10 s) = 2 replicas.
        mean_tokens = autoscaler.mean_tokens_per_request(0.0)
        assert autoscaler._target_replicas(5.0, 0.0, mean_tokens) == 2
        # Clamped to the configured bounds.
        assert autoscaler._target_replicas(0.1, 0.0, mean_tokens) == 8
        pool.num_pending_requests = 0
        assert autoscaler._target_replicas(5.0, 0.0, mean_tokens) == 1

    def test_cold_start_falls_back_to_reactive_signals(self):
        # No completions -> no service-rate estimate -> queue pressure must
        # still grow the pool (the predictive target would divide by zero).
        env = Environment()
        pool = FakePool(pending=100, provisioned=1)
        make_autoscaler(env, pool, mode="predictive", forecaster="windowed-rate")
        env.run(until=1.5)
        assert pool.grow_times == [1.0]

    def test_forecast_mae_requires_forecaster(self):
        env = Environment()
        reactive = make_autoscaler(env, FakePool())
        assert reactive.forecast_mae() is None


# ---------------------------------------------------------------------------
# Cooperative slo-shed projection
# ---------------------------------------------------------------------------


class StubProbe:
    """Probe whose drain signals are directly scripted by the test."""

    def __init__(self, backlog_drain: float, projected_drain: float):
        self.backlog_drain = backlog_drain
        self.projected_drain = projected_drain

    def backlog_drain_seconds(self, now, window_s):
        return self.backlog_drain

    def projected_drain_seconds(self, now, window_s):
        return self.projected_drain


class TestCooperativeSloShed:
    def make_gate(self, cooperative: bool, probe: StubProbe) -> SloShedAdmission:
        spec = AdmissionSpec(policy="slo-shed", slo_p95_s=10.0, cooperative=cooperative)
        return SloShedAdmission(spec, probe)

    def test_independent_gate_sheds_on_current_backlog(self):
        # Backlog projection violates the SLO; scale-ups landing soon would
        # clear it, but the independent gate cannot see them.
        probe = StubProbe(backlog_drain=20.0, projected_drain=2.0)
        assert self.make_gate(False, probe).decide(0.0, "agent", None) == REJECT

    def test_cooperative_gate_waits_for_inflight_scaleups(self):
        probe = StubProbe(backlog_drain=20.0, projected_drain=2.0)
        assert self.make_gate(True, probe).decide(0.0, "agent", None) == ADMIT

    def test_cooperative_gate_still_sheds_when_scaleups_cannot_catch_up(self):
        probe = StubProbe(backlog_drain=30.0, projected_drain=25.0)
        assert self.make_gate(True, probe).decide(0.0, "agent", None) == REJECT

    def test_cooperative_gate_unsheds_as_replicas_land(self):
        probe = StubProbe(backlog_drain=30.0, projected_drain=25.0)
        gate = self.make_gate(True, probe)
        assert gate.decide(0.0, "agent", None) == REJECT
        assert gate.shed_active
        # Warm replicas landed: the horizon projection clears the exit
        # threshold (10 * 0.8) and the gate reopens.
        probe.projected_drain = 4.0
        assert gate.decide(1.0, "agent", None) == ADMIT
        assert not gate.shed_active
        assert [active for _, active in gate.transitions] == [True, False]

    def test_horizon_must_be_positive(self):
        # The gate looks ahead over the autoscaler's horizon, which its
        # spec validates.
        with pytest.raises(ValueError, match="horizon_s"):
            AutoscalerSpec(horizon_s=0.0)


# ---------------------------------------------------------------------------
# Spec vocabulary
# ---------------------------------------------------------------------------


class TestPredictiveSpecs:
    def test_autoscaler_mode_and_forecaster_validated(self):
        with pytest.raises(ValueError, match="unknown autoscaler mode"):
            AutoscalerSpec(mode="proactive")
        with pytest.raises(ValueError, match="unknown arrival forecaster"):
            AutoscalerSpec(mode="predictive", forecaster="arima")
        with pytest.raises(ValueError, match="horizon_s"):
            AutoscalerSpec(mode="predictive", horizon_s=0.0)
        with pytest.raises(ValueError, match="alpha/beta"):
            AutoscalerSpec(forecaster_alpha=0.0)

    def test_cooperative_requires_slo_shed(self):
        with pytest.raises(ValueError, match="cooperative"):
            AdmissionSpec(policy="token-bucket", rate_qps=1.0, cooperative=True)

    def test_cooperative_requires_an_autoscaler(self):
        with pytest.raises(ValueError, match="requires an autoscaler"):
            predictive_spec(
                autoscaler=None,
                admission=AdmissionSpec(
                    policy="slo-shed", slo_p95_s=10.0, cooperative=True
                ),
            )

    def test_predictive_spec_round_trips_through_dict(self):
        spec = predictive_spec(
            admission=AdmissionSpec(
                per_class=(
                    (
                        "agent",
                        AdmissionSpec(
                            policy="slo-shed", protect_class="chat", cooperative=True
                        ),
                    ),
                )
            )
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# End-to-end behaviour and the reactive golden pin
# ---------------------------------------------------------------------------


class TestPredictiveServing:
    def test_forecaster_sees_only_the_autoscaled_pools_arrivals(self):
        # A predictive autoscaler watching one pool of a two-pool fleet must
        # not size that pool from the fleet-wide arrival rate: only arrivals
        # classified to its pool count as its demand.
        from repro.api import PoolSpec
        from repro.api.builder import SystemBuilder
        from repro.api.runners import ServingDriver, _build_plan

        # Declared pools carry their own fleet settings, so the flat ones
        # go back to their defaults.
        spec = predictive_spec(
            replicas=1,
            router="round-robin",
            scheduler="fcfs",
            pools=(
                PoolSpec(name="chat", replicas=2, traffic_classes=("chat",)),
                PoolSpec(name="agent", replicas=2, traffic_classes=("agent",)),
            ),
            autoscaler=AutoscalerSpec(
                pool="agent",
                mode="predictive",
                forecaster="windowed-rate",
                min_replicas=2,
                max_replicas=4,
            ),
        )
        system = SystemBuilder(spec).build()
        driver = ServingDriver(system)
        plan = _build_plan(system)
        driver.serve(plan)
        observed = len(system.autoscaler.forecaster.arrivals)
        agent_arrivals = sum(1 for label in plan.labels() if label == "agent")
        assert observed == agent_arrivals
        assert observed < len(plan)

    def test_predictive_run_is_deterministic_and_reports_telemetry(self):
        first = run_experiment(predictive_spec())
        second = run_experiment(predictive_spec())
        assert first.latencies == second.latencies
        assert [e.time for e in first.serving.scaling_events] == [
            e.time for e in second.serving.scaling_events
        ]
        assert first.forecast_mae is not None
        summary = first.summary()
        assert summary["forecast_mae"] == first.forecast_mae

    def test_reactive_runs_reproduce_pr3_numbers(self):
        # Golden pin first captured on the pre-forecasting tree: the
        # reactive controller and its serving pipeline must not shift by a
        # single event when the predictive machinery is idle.
        spec = ExperimentSpec(
            workloads=(
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", weight=0.6, name="chat"
                ),
                WeightedWorkload(
                    agent="react", workload="hotpotqa", weight=0.4, name="agent"
                ),
            ),
            autoscaler=AutoscalerSpec(
                min_replicas=1,
                max_replicas=3,
                check_interval_s=1.0,
                warmup_s=2.0,
                scale_up_pending_per_replica=1.5,
                scale_down_pending_per_replica=0.25,
            ),
            arrival=ArrivalSpec(
                process="poisson", qps=3.0, num_requests=12, task_pool_size=8
            ),
            seed=7,
        )
        outcome = run_experiment(spec)
        # Re-pinned at exact decode when approximate decode chunking was deleted.
        assert outcome.latencies == [
            2.693706879793915,
            7.472405313755288,
            5.779532951107268,
            6.1772126359766215,
            7.221658231065257,
            8.783045633469191,
            9.658526644845569,
            17.289095795516776,
            20.747736264424013,
            17.12160557620708,
            21.1872773387076,
            26.710779827392443,
        ]
        assert [
            (event.time, event.action) for event in outcome.serving.scaling_events
        ] == [(2.0, "grow"), (3.0, "grow"), (25.0, "shrink"), (27.0, "shrink")]
        assert outcome.replica_seconds == 78.25191033478404
        # The idle predictive surface stays dark on reactive runs.
        assert outcome.forecast_mae is None
        assert outcome.scale_ahead_lead_s is None
