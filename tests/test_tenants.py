"""Multi-tenant population model, tenanted plans, and fairness accounting.

Covers the tenant vocabulary end to end: spec validation and
serialization, lazy Zipf sampling (determinism, rank bounds, skew
ordering, O(distinct-seen) memory on a million-user population), plan
labeling across poisson/uniform/shaped/mixture plans -- including the
golden pins: untenanted plans are bit-for-bit the pre-tenant plans, and
tenant draws never perturb arrival times or task picks -- plus the
per-arrival label integrity of superposed shaped mixtures, the
vtc/oit-throttle behaviours, and the fairness report maths.
"""

from __future__ import annotations

import math

import pytest

from repro.serving.admission import (
    ADMIT,
    DELAY,
    REJECT,
    AdmissionController,
    AdmissionSpec,
    OITThrottleAdmission,
    available_admission_policies,
)
from repro.serving.loadgen import arrival_plan
from repro.serving.shapes import ConstantShape, SquareWaveShape
from repro.serving.tenants import (
    Tenant,
    TenantPopulation,
    TenantSpec,
    jain_index,
    sample_tenants,
    tenant_fairness,
)
from repro.sim.distributions import RandomStream
from repro.workloads import create_workload


@pytest.fixture(scope="module")
def workload():
    return create_workload("sharegpt", seed=0)


@pytest.fixture(scope="module")
def other_workload():
    return create_workload("hotpotqa", seed=0)


def _tenant(rank: int, population: int = 100) -> Tenant:
    return Tenant(user=f"u{rank}", app="app0", rank=rank, population=population)


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec()
        assert spec.num_users == 10_000
        assert spec.skew == 1.2
        assert spec.num_apps == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="num_users"):
            TenantSpec(num_users=0)
        with pytest.raises(ValueError, match="skew"):
            TenantSpec(skew=-0.1)
        with pytest.raises(ValueError, match="num_apps"):
            TenantSpec(num_apps=0)

    def test_round_trip(self):
        from dataclasses import asdict

        from repro.api.codec import from_dict

        spec = TenantSpec(num_users=1_000_000, skew=1.6, num_apps=50)
        assert from_dict(TenantSpec, asdict(spec)) == spec


class TestZipfSampling:
    def test_deterministic(self):
        spec = TenantSpec(num_users=1000, skew=1.3)
        a = sample_tenants(spec, 50, RandomStream(7, "t"))
        b = sample_tenants(spec, 50, RandomStream(7, "t"))
        assert a == b

    def test_rank_bounds(self):
        spec = TenantSpec(num_users=50, skew=1.1)
        tenants = sample_tenants(spec, 500, RandomStream(1, "t"))
        assert all(1 <= tenant.rank <= 50 for tenant in tenants)

    def test_skew_concentrates_on_low_ranks(self):
        # Heavier skew -> rank 1 (the whale) owns a larger share of draws.
        def whale_share(skew: float) -> float:
            spec = TenantSpec(num_users=10_000, skew=skew)
            tenants = sample_tenants(spec, 2000, RandomStream(3, "t"))
            return sum(1 for tenant in tenants if tenant.rank == 1) / len(tenants)

        assert whale_share(1.6) > whale_share(0.8) + 0.1

    def test_near_uniform_at_zero_skew(self):
        spec = TenantSpec(num_users=10, skew=0.0)
        tenants = sample_tenants(spec, 2000, RandomStream(5, "t"))
        counts = [0] * 10
        for tenant in tenants:
            counts[tenant.rank - 1] += 1
        assert min(counts) > 100  # every rank drawn regularly

    def test_million_user_population_stays_lazy(self):
        population = TenantPopulation(TenantSpec(num_users=1_000_000, skew=1.2))
        stream = RandomStream(11, "t")
        drawn = [population.sample(stream) for _ in range(300)]
        # Memory is the memo of tenants actually seen, never O(population).
        assert population.distinct_seen == len({tenant.rank for tenant in drawn})
        assert population.distinct_seen <= 300

    def test_memoised_identity(self):
        population = TenantPopulation(TenantSpec(num_users=100, skew=1.5))
        assert population.tenant_for_rank(3) is population.tenant_for_rank(3)

    def test_app_assignment_seed_independent(self):
        spec = TenantSpec(num_users=1000, skew=1.2, num_apps=7)
        a = TenantPopulation(spec).tenant_for_rank(42)
        b = TenantPopulation(spec).tenant_for_rank(42)
        assert a.app == b.app

    def test_decile(self):
        assert _tenant(1, population=100).decile == 0
        assert _tenant(10, population=100).decile == 0
        assert _tenant(11, population=100).decile == 1
        assert _tenant(100, population=100).decile == 9
        assert _tenant(1, population=1).decile == 0


class TestTenantedPlans:
    def test_poisson_plan_labels_every_arrival(self, workload):
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, num_requests=20,
            stream=RandomStream(1, "p"), tenants=TenantSpec(num_users=1000, skew=1.4),
        )
        assert plan.tenants is not None
        assert len(plan.tenants) == 20
        assert all(isinstance(tenant, Tenant) for tenant in plan.tenants)

    def test_untenanted_plan_bit_for_bit_identical(self, workload):
        # Golden pin: the tenants substream only exists when a spec is
        # present, so untenanted plans consume exactly the legacy draws.
        legacy = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, num_requests=30, stream=RandomStream(9, "p")
        )
        tenanted = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, num_requests=30,
            stream=RandomStream(9, "p"), tenants=TenantSpec(num_users=100, skew=1.2),
        )
        assert legacy.tenants is None
        assert legacy.tenant_labels() == [None] * 30
        assert tenanted.arrival_times == legacy.arrival_times
        assert [t.task_id for t in tenanted.tasks] == [t.task_id for t in legacy.tasks]

    def test_uniform_plan_tenants(self, workload):
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=4.0, num_requests=12,
            stream=RandomStream(2, "u"), process="uniform",
            tenants=TenantSpec(num_users=500, skew=1.0),
        )
        assert plan.tenants is not None and len(plan.tenants) == 12

    def test_tenanted_plan_requires_stream(self, workload):
        with pytest.raises(ValueError, match="RandomStream"):
            arrival_plan(
                [(None, workload, 1.0)], qps=4.0, num_requests=4, stream=None,
                process="uniform", tenants=TenantSpec(num_users=10),
            )

    def test_shaped_plan_tenants(self, workload):
        shape = SquareWaveShape(
            base_level=0.5, burst_level=3.0, period_s=10.0, burst_start_s=2.0,
            burst_s=4.0,
        )
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=3.0, shape=shape, num_requests=25,
            stream=RandomStream(4, "s"), task_pool_size=8,
            tenants=TenantSpec(num_users=1000, skew=1.3),
        )
        assert plan.tenants is not None and len(plan.tenants) == len(plan)

    def test_shaped_golden_pin(self, workload):
        # Shaped untenanted plans are unchanged by the tenants parameter path.
        shape = SquareWaveShape(
            base_level=0.5, burst_level=2.0, period_s=8.0, burst_start_s=2.0,
            burst_s=2.0,
        )
        a = arrival_plan(
            [(None, workload, 1.0)], qps=3.0, shape=shape, num_requests=20,
            stream=RandomStream(6, "s"), task_pool_size=8,
        )
        b = arrival_plan(
            [(None, workload, 1.0)], qps=3.0, shape=shape, num_requests=20,
            stream=RandomStream(6, "s"), task_pool_size=8,
            tenants=TenantSpec(num_users=100, skew=1.2),
        )
        assert a.tenants is None
        assert b.arrival_times == a.arrival_times
        assert [t.task_id for t in b.tasks] == [t.task_id for t in a.tasks]


class TestMixtureTenantIntegrity:
    def test_unshaped_mixture_tenants(self, workload, other_workload):
        plan = arrival_plan(
            [("chat", workload, 0.6), ("agent", other_workload, 0.4)],
            qps=4.0, num_requests=30, stream=RandomStream(3, "m"),
            task_pool_size=8,
            tenants=TenantSpec(num_users=1000, skew=1.4),
        )
        assert plan.tenants is not None
        assert len(plan.tenants) == 30
        assert all(isinstance(tenant, Tenant) for tenant in plan.tenants)

    def test_mixture_golden_pin(self, workload, other_workload):
        components = [("chat", workload, 0.6), ("agent", other_workload, 0.4)]
        legacy = arrival_plan(
            components, qps=4.0, num_requests=30, stream=RandomStream(8, "m"),
            task_pool_size=8,
        )
        tenanted = arrival_plan(
            components, qps=4.0, num_requests=30, stream=RandomStream(8, "m"),
            task_pool_size=8, tenants=TenantSpec(num_users=100, skew=1.2),
        )
        assert legacy.tenants is None
        assert tenanted.arrival_times == legacy.arrival_times
        assert tenanted.traffic_classes == legacy.traffic_classes
        assert [t.task_id for t in tenanted.tasks] == [
            t.task_id for t in legacy.tasks
        ]

    def test_partially_tenanted_mixture(self, workload, other_workload):
        # A per-class spec on one class only: the other class stays None.
        plan = arrival_plan(
            [
                ("chat", workload, 0.6, None, TenantSpec(num_users=100, skew=1.2)),
                ("agent", other_workload, 0.4),
            ],
            qps=4.0, num_requests=40, stream=RandomStream(5, "m"), task_pool_size=8,
        )
        assert plan.tenants is not None
        for label, tenant in zip(plan.traffic_classes, plan.tenants):
            if label == "chat":
                assert isinstance(tenant, Tenant)
            else:
                assert tenant is None

    def test_superposed_shaped_mixture_keeps_labels_aligned(
        self, workload, other_workload
    ):
        # The heap merge of per-class shaped processes must keep BOTH the
        # traffic-class column and the tenant column aligned with arrival
        # times.  Tenanted classes draw from disjoint populations via
        # per-class substreams, and each class's own plan (same seed) must
        # reappear as the per-class subsequence of the superposed plan.
        chat_spec = TenantSpec(num_users=97, skew=1.1)
        agent_spec = TenantSpec(num_users=1009, skew=1.5)
        shape = SquareWaveShape(
            base_level=0.5, burst_level=3.0, period_s=12.0, burst_start_s=4.0,
            burst_s=4.0,
        )
        plan = arrival_plan(
            [
                ("chat", workload, 0.6, None, chat_spec),
                ("agent", other_workload, 0.4, shape, agent_spec),
            ],
            qps=5.0, num_requests=40, stream=RandomStream(12, "m"),
            task_pool_size=8, shape=ConstantShape(),
        )
        assert plan.traffic_classes is not None and plan.tenants is not None
        assert len(plan.traffic_classes) == len(plan) == len(plan.tenants)
        assert sorted(plan.arrival_times) == plan.arrival_times
        assert set(plan.traffic_classes) == {"chat", "agent"}
        for label, tenant in zip(plan.traffic_classes, plan.tenants):
            assert isinstance(tenant, Tenant)
            # Disjoint populations: the tenant's population size betrays
            # which class's spec drew it, so misaligned columns would fail.
            expected = chat_spec if label == "chat" else agent_spec
            assert tenant.population == expected.num_users

    def test_superposition_preserves_per_class_arrival_subsequences(
        self, workload, other_workload
    ):
        shape = SquareWaveShape(
            base_level=0.5, burst_level=3.0, period_s=12.0, burst_start_s=4.0,
            burst_s=4.0,
        )
        plan = arrival_plan(
            [("chat", workload, 0.7), ("agent", other_workload, 0.3, shape)],
            qps=5.0, num_requests=30, stream=RandomStream(2, "m"),
            task_pool_size=8, shape=ConstantShape(),
        )
        by_class = {"chat": [], "agent": []}
        for time, label in zip(plan.arrival_times, plan.traffic_classes):
            by_class[label].append(time)
        for times in by_class.values():
            assert times == sorted(times)
            assert len(times) > 0


class TestFairnessReport:
    def test_jain_index(self):
        assert jain_index([]) == 1.0
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_untenanted_run_reports_none(self):
        assert tenant_fairness({}, {}) is None

    def test_contender_floor(self):
        whale, tail, brief = _tenant(1), _tenant(50), _tenant(99)
        stats = tenant_fairness(
            {whale: 900.0, tail: 100.0, brief: 0.0},
            {whale: (10, 0), tail: (4, 0), brief: (1, 0)},
        )
        assert stats.num_tenants == 3
        assert stats.num_contenders == 2  # the single-request tenant is not starved
        assert stats.max_min_ratio == pytest.approx(9.0)

    def test_starved_contender_is_inf(self):
        whale, tail = _tenant(1), _tenant(50)
        stats = tenant_fairness(
            {whale: 900.0}, {whale: (10, 0), tail: (5, 0)}
        )
        assert math.isinf(stats.max_min_ratio)

    def test_single_contender_ratio_is_one(self):
        whale = _tenant(1)
        stats = tenant_fairness({whale: 900.0}, {whale: (10, 0)})
        assert stats.max_min_ratio == 1.0

    def test_decile_throttle_rates(self):
        hot, cold = _tenant(1, population=100), _tenant(95, population=100)
        stats = tenant_fairness(
            {hot: 10.0, cold: 10.0},
            {hot: (10, 5), cold: (4, 0)},
        )
        rates = stats.decile_throttle_rates()
        assert rates[0] == pytest.approx(0.5)
        assert rates[9] == pytest.approx(0.0)
        assert rates[4] is None  # no offers in that decile
        assert stats.throttle_rate == pytest.approx(5 / 14)


class _Probe:
    """Stub load probe with settable pressure signals."""

    def __init__(self, kv: float = 0.0, pending: float = 0.0):
        self.kv = kv
        self.pending = pending

    def kv_utilization(self) -> float:
        return self.kv

    def pending_per_active_replica(self) -> float:
        return self.pending


def oit_throttle(probe: _Probe, **params) -> OITThrottleAdmission:
    return OITThrottleAdmission(AdmissionSpec(policy="oit-throttle", **params), probe)


class TestOITThrottle:
    def test_registered(self):
        assert "oit-throttle" in available_admission_policies()

    def test_default_allows_60_rpm_per_user(self):
        # Neither rpm set: 60 requests/min per user over the spec's 30 s
        # window, i.e. 30 admissions per rolling window.
        policy = oit_throttle(_Probe(kv=1.0))
        assert policy.spec.window_s == 30.0
        tenant = _tenant(1)
        for second in range(30):
            assert policy.decide(float(second), None, tenant) == ADMIT
            policy.admit(float(second), None, tenant)
            policy.release(float(second), None, tenant)
        assert policy.decide(29.5, None, tenant) == REJECT
        # The t=0 admission has left the window.
        assert policy.decide(30.5, None, tenant) == ADMIT

    def test_never_bites_without_pressure(self):
        policy = oit_throttle(_Probe(kv=0.0, pending=0.0), user_rpm=1.0, window_s=60.0)
        tenant = _tenant(1)
        for _ in range(20):
            assert policy.decide(0.0, None, tenant) == ADMIT
            policy.admit(0.0, None, tenant)
            policy.release(0.0, None, tenant)
        assert policy.throttled == 0

    def test_bites_under_kv_pressure(self):
        probe = _Probe(kv=0.95)
        policy = oit_throttle(probe, user_rpm=2.0, window_s=60.0)
        tenant = _tenant(1)
        for _ in range(2):  # fill the per-user window
            assert policy.decide(0.0, None, tenant) == ADMIT
            policy.admit(0.0, None, tenant)
            policy.release(0.0, None, tenant)
        assert policy.decide(1.0, None, tenant) == REJECT
        assert policy.throttled == 1
        # The window expires: admitted again.
        assert policy.decide(61.0, None, tenant) == ADMIT

    def test_queue_pressure_also_triggers(self):
        probe = _Probe(pending=10.0)
        policy = oit_throttle(probe, user_rpm=1.0, window_s=60.0, queue_threshold=4.0)
        tenant = _tenant(2)
        policy.admit(0.0, None, tenant)
        policy.release(0.0, None, tenant)
        assert policy.decide(1.0, None, tenant) == REJECT

    def test_in_progress_interaction_never_severed(self):
        probe = _Probe(kv=1.0)
        policy = oit_throttle(probe, user_rpm=1.0, window_s=60.0)
        tenant = _tenant(3)
        policy.admit(0.0, None, tenant)  # still in flight
        # Over the RPM window AND under pressure, but the tenant has an
        # in-progress interaction: follow-up calls are always admitted.
        assert policy.decide(1.0, None, tenant) == ADMIT
        policy.release(1.0, None, tenant)
        assert policy.decide(2.0, None, tenant) == REJECT

    def test_app_rpm_budget(self):
        probe = _Probe(kv=0.95)
        policy = oit_throttle(probe, app_rpm=2.0, window_s=60.0)
        a = Tenant(user="u1", app="app0", rank=1, population=10)
        b = Tenant(user="u2", app="app0", rank=2, population=10)
        for tenant in (a, b):  # two users drain the shared app budget
            policy.admit(0.0, None, tenant)
            policy.release(0.0, None, tenant)
        c = Tenant(user="u3", app="app0", rank=3, population=10)
        assert policy.decide(1.0, None, c) == REJECT

    def test_untenanted_traffic_always_admitted(self):
        policy = oit_throttle(_Probe(kv=1.0), user_rpm=1.0)
        assert policy.decide(0.0, None, None) == ADMIT

    def test_delay_mode(self):
        probe = _Probe(kv=0.95)
        policy = oit_throttle(
            probe, user_rpm=1.0, window_s=60.0, overload_action="delay"
        )
        tenant = _tenant(4)
        policy.admit(0.0, None, tenant)
        policy.release(0.0, None, tenant)
        assert policy.decide(1.0, None, tenant) == DELAY
        assert policy.retry_at(1.0) == pytest.approx(1.0 + 60.0 / 4.0)

    def test_controller_tenant_accounting(self):
        probe = _Probe(kv=0.95)
        controller = AdmissionController(
            oit_throttle(probe, user_rpm=1.0, window_s=60.0)
        )
        tenant = _tenant(5)
        assert controller.offer(0.0, "chat", tenant) == ADMIT
        controller.on_complete(0.5, "chat", latency=0.5, output_tokens=10, tenant=tenant)
        assert controller.offer(1.0, "chat", tenant) == REJECT
        counts = controller.tenant_counts()
        assert counts[tenant] == (2, 1)
        # Untenanted offers are admitted and leave the tenant counts alone.
        assert controller.offer(2.0, "chat") == ADMIT
        assert controller.tenant_counts() == counts


class TestTenantedExperiments:
    """End-to-end: TenantSpec through the spec/builder/runner stack."""

    def _spec(self, **overrides):
        from repro.api.spec import AdmissionSpec, ArrivalSpec, ExperimentSpec

        kwargs = dict(
            agent="chatbot",
            workload="sharegpt",
            scheduler="vtc",
            admission=AdmissionSpec(policy="oit-throttle", user_rpm=30.0),
            arrival=ArrivalSpec(
                process="poisson", qps=4.0, num_requests=10, task_pool_size=6,
                tenants=TenantSpec(num_users=1_000_000, skew=1.5, num_apps=20),
            ),
        )
        kwargs.update(overrides)
        return ExperimentSpec(**kwargs)

    def test_tenanted_run_reports_fairness(self):
        from repro.api.runners import run_experiment

        outcome = run_experiment(self._spec())
        assert outcome.tenant_stats is not None
        assert outcome.tenant_stats.offered == 10
        assert outcome.jain_fairness is not None
        assert outcome.served_token_ratio is not None
        assert outcome.metric("jain_fairness") == outcome.jain_fairness
        summary = outcome.summary()
        assert "served_token_ratio" in summary

    def test_untenanted_run_reports_none(self):
        from repro.api.runners import run_experiment
        from repro.api.spec import ArrivalSpec

        outcome = run_experiment(
            self._spec(
                scheduler="fcfs",
                admission=None,
                arrival=ArrivalSpec(
                    process="poisson", qps=4.0, num_requests=6, task_pool_size=6
                ),
            )
        )
        assert outcome.tenant_stats is None
        assert outcome.served_token_ratio is None

    def test_spec_round_trip(self):
        from repro.api.spec import ExperimentSpec

        spec = self._spec()
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt.arrival.tenants == spec.arrival.tenants
        assert rebuilt.admission.user_rpm == 30.0

    def test_tenant_spec_rejected_for_sequential(self):
        from repro.api.spec import ArrivalSpec

        with pytest.raises(ValueError, match="tenants"):
            ArrivalSpec(
                process="single", num_requests=4,
                tenants=TenantSpec(num_users=10),
            )

    def test_study_axis_serialization(self):
        from repro.api.spec import ArrivalSpec, ExperimentSpec
        from repro.api.study import StudyAxis, StudySpec

        study = StudySpec(
            base=ExperimentSpec(
                agent="chatbot", workload="sharegpt",
                arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=4),
            ),
            axes=(
                StudyAxis(
                    name="skew",
                    field="arrival.tenants",
                    values=(
                        TenantSpec(num_users=100, skew=1.0),
                        TenantSpec(num_users=100, skew=1.6),
                    ),
                    labels=("mild", "heavy"),
                ),
            ),
        )
        rebuilt = StudySpec.from_dict(study.to_dict())
        assert rebuilt.axes[0].values == study.axes[0].values

    def test_decile_metric_resolution(self):
        from repro.api.runners import run_experiment
        from repro.api.study import resolve_metric

        outcome = run_experiment(self._spec())
        rates = outcome.tenant_stats.decile_throttle_rates()
        for decile, rate in enumerate(rates):
            resolved = resolve_metric(
                outcome, f"tenant_throttle_decile:{decile}", missing_ok=True
            )
            assert resolved == rate
        with pytest.raises(ValueError, match="decile"):
            resolve_metric(outcome, "tenant_throttle_decile:11")
