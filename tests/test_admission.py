"""Admission-control: golden pins, policy units, spec validation, reporting.

The concurrency golden pin holds the registry's ``concurrency`` policy to
literal metrics of one exact-decode run, bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.agents import AgentConfig
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    WeightedWorkload,
    run_experiment,
)
from repro.serving.admission import (
    ADMISSION_POLICIES,
    ADMIT,
    DELAY,
    REJECT,
    AdmissionPolicy,
    SloShedAdmission,
    TokenBucketAdmission,
    available_admission_policies,
    register_admission_policy,
)


class IdleProbe:
    """A fleet with no backlog: projections are the rolling p95 alone."""

    def backlog_drain_seconds(self, now, window_s):
        return 0.0


def token_bucket(**params) -> TokenBucketAdmission:
    return TokenBucketAdmission(
        AdmissionSpec(policy="token-bucket", **params), IdleProbe()
    )


def slo_shed(**params) -> SloShedAdmission:
    return SloShedAdmission(AdmissionSpec(policy="slo-shed", **params), IdleProbe())


def agent_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        agent="react",
        workload="hotpotqa",
        model="8b",
        agent_config=AgentConfig(max_iterations=5),
        seed=0,
        arrival=ArrivalSpec(process="poisson", qps=3.0, num_requests=10, task_pool_size=8),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


MIXTURE = dict(
    workloads=(
        WeightedWorkload(agent="chatbot", workload="sharegpt", weight=0.6, name="chat"),
        WeightedWorkload(agent="react", workload="hotpotqa", weight=0.4, name="agent"),
    ),
    agent_config=AgentConfig(max_iterations=5),
    arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=16, task_pool_size=8),
    seed=0,
)


class TestConcurrencyGoldenPin:
    """A concurrency cap of 2 reproduces the pinned door gate bit-for-bit."""

    # Re-pinned at exact decode when the approximate decode chunking this run
    # used was deleted.  METRICS holds ResultSet metrics; RECORD holds fields
    # of the wrapped ServingResult.
    METRICS = {
        "mean_latency": 12.628310580867481,
        "p95_latency": 14.927020364071147,
        "energy_wh": 3.8739230303890655,
        "throughput_qps": 0.15606578603494042,
        "duration": 64.07554310309355,
        "num_queued": 8,
        "mean_admission_delay": 23.257865579985936,
        "p95_admission_delay": 47.06637672555817,
    }
    RECORD = {
        "kv_average_bytes": 90625647.68728551,
        "preemptions": 0,
        "prefix_cache_hit_rate": 0.918328360771856,
    }
    LATENCIES = [
        13.776076213721327,
        14.872020083612046,
        5.518941797484709,
        13.282800943128317,
        13.829246226030097,
        8.604161303077078,
        14.972020593537685,
        13.769127230874062,
        13.195113053683613,
        14.463598363525854,
    ]
    ADMISSION_DELAYS = [
        0.0,
        0.0,
        13.382750812185808,
        13.905419926615805,
        19.099326081759855,
        25.626328007307364,
        32.413120560420026,
        34.07254222162021,
        46.77165778914488,
        47.30751040080541,
    ]

    def test_registry_gate_is_bit_for_bit_identical(self):
        gated = run_experiment(
            agent_spec(admission=AdmissionSpec(policy="concurrency", max_concurrency=2))
        )
        for metric, expected in self.METRICS.items():
            assert getattr(gated, metric) == expected, metric
        for name, expected in self.RECORD.items():
            assert getattr(gated.serving, name) == expected, name
        assert gated.latencies == self.LATENCIES
        assert gated.admission_delays == self.ADMISSION_DELAYS

    def test_unlimited_policy_matches_open_door(self):
        open_door = run_experiment(agent_spec())
        unlimited = run_experiment(agent_spec(admission="unlimited"))
        assert unlimited.latencies == open_door.latencies
        assert unlimited.num_rejected == 0
        assert unlimited.rejection_rate == 0.0


class TestTokenBucketRefill:
    """Refill timing of the token bucket, request by request."""

    def test_burst_then_rate(self):
        bucket = token_bucket(rate_qps=2.0, burst=3)
        # The bucket starts full: the burst is admitted back to back.
        assert [bucket.decide(0.0, None, None) for _ in range(3)] == [ADMIT] * 3
        # Empty bucket: delayed, next token half a second out (rate 2/s).
        assert bucket.decide(0.0, None, None) == DELAY
        assert bucket.retry_at(0.0) == pytest.approx(0.5)
        # At the refill instant exactly one token has accrued.
        assert bucket.decide(0.5, None, None) == ADMIT
        assert bucket.decide(0.5, None, None) == DELAY

    def test_refill_caps_at_burst(self):
        bucket = token_bucket(rate_qps=10.0, burst=2)
        for _ in range(2):
            assert bucket.decide(0.0, None, None) == ADMIT
        # A long quiet period refills to burst, not beyond.
        refilled = [bucket.decide(100.0, None, None) for _ in range(3)]
        assert refilled == [ADMIT, ADMIT, DELAY]

    def test_reject_mode_sheds_instead_of_queueing(self):
        bucket = token_bucket(rate_qps=1.0, burst=1, overload_action="reject")
        assert bucket.decide(0.0, None, None) == ADMIT
        assert bucket.decide(0.0, None, None) == REJECT
        assert bucket.retry_at(0.0) is None  # reject mode never re-offers

    def test_retry_chain_is_rate_spaced(self):
        bucket = token_bucket(rate_qps=4.0, burst=1)
        assert bucket.decide(0.0, None, None) == ADMIT
        retries = []
        now = 0.0
        for _ in range(3):
            now = bucket.retry_at(now)
            retries.append(now)
            assert bucket.decide(now, None, None) == ADMIT
        assert retries == [pytest.approx(0.25 * (i + 1)) for i in range(3)]

    def test_end_to_end_delay_spacing(self):
        # Rate 0.5/s, burst 1 against a 4-request burst: completions are
        # spaced at least ~2s apart once the bucket empties.
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(
                process="uniform", qps=8.0, num_requests=4, task_pool_size=4
            ),
            admission=AdmissionSpec(policy="token-bucket", rate_qps=0.5, burst=1),
        )
        result = run_experiment(spec)
        assert result.num_completed == 4
        assert result.num_rejected == 0
        delays = sorted(result.admission_delays)
        assert delays[0] == 0.0  # the burst token
        # Admissions are refill-spaced exactly 1/rate = 2s apart while the
        # arrivals land 1/qps = 0.125s apart, so the k-th queued request
        # waits k * (2 - 0.125) seconds.
        for index, delay in enumerate(delays[1:], start=1):
            assert delay == pytest.approx((2.0 - 0.125) * index)


class TestSloShedHysteresis:
    """Synthetic burst against the shed gate's enter/exit thresholds."""

    def _policy(self) -> SloShedAdmission:
        return slo_shed(
            slo_p95_s=10.0, window_s=100.0, enter_factor=1.0, exit_factor=0.5
        )

    def test_engages_above_slo_and_holds_until_exit_threshold(self):
        policy = self._policy()
        # Healthy completions: projection below the SLO, gate open.
        policy.observe(1.0, None, 5.0, 100)
        assert policy.decide(1.0, None, None) == ADMIT
        assert not policy.shed_active
        # A latency spike pushes the rolling p95 over the SLO: gate sheds.
        for time in (2.0, 3.0, 4.0):
            policy.observe(time, None, 20.0, 100)
        assert policy.decide(4.0, None, None) == REJECT
        assert policy.shed_active
        # Recovery to just under the SLO is NOT enough -- hysteresis holds
        # the gate closed until the projection falls below slo * exit_factor.
        for time in range(5, 40):
            policy.observe(float(time), None, 6.0, 100)
        cleared = 104.0  # spike completions age out of the 100s window
        assert policy.rolling_p95(cleared) < 10.0  # p95 back under the SLO
        assert policy.rolling_p95(cleared) > 5.0   # ...but above the exit bar
        assert policy.decide(cleared, None, None) == REJECT
        assert policy.shed_active
        # Only once the projection clears slo * exit_factor does it reopen.
        reopened = 150.0  # every 6s completion has aged out too
        assert policy.decide(reopened, None, None) == ADMIT
        assert not policy.shed_active
        # The transition log shows exactly one engage/disengage cycle.
        assert [active for _, active in policy.transitions] == [True, False]

    def test_protect_class_filters_observations(self):
        policy = slo_shed(slo_p95_s=1.0, window_s=50.0, protect_class="chat")
        policy.observe(0.0, "agent", 99.0, 100)  # unprotected class: ignored
        assert policy.decide(1.0, "agent", None) == ADMIT
        policy.observe(2.0, "chat", 99.0, 100)  # protected class violates
        assert policy.decide(3.0, "agent", None) == REJECT

    def test_mixture_sheds_agent_class_only(self):
        spec = ExperimentSpec(
            measurement=MeasurementSpec(class_slos=(("chat", 6.0),)),
            admission=AdmissionSpec(
                per_class=(
                    (
                        "agent",
                        AdmissionSpec(
                            policy="slo-shed", protect_class="chat", window_s=20.0
                        ),
                    ),
                )
            ),
            **MIXTURE,
        )
        outcome = run_experiment(spec)
        door = outcome.admission_stats
        assert door["chat"].rejected == 0
        assert door["agent"].rejected > 0
        assert outcome.num_rejected == door["agent"].rejected
        assert outcome.rejection_rate > 0.0
        assert outcome.shed_tokens > 0.0
        # Per-class reporting carries the SLO and the door accounting.
        chat = outcome.classes["chat"]
        assert chat.slo_attainment is not None
        agent = outcome.classes["agent"]
        assert agent.num_rejected == door["agent"].rejected
        assert agent.rejection_rate > 0.0
        # Rejections are attributed to the pool that would have served them.
        pool = outcome.pool_stats["default"]
        assert pool.rejected_requests == outcome.num_rejected
        assert pool.shed_tokens == pytest.approx(outcome.shed_tokens)


class TestAdmissionSpecValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            AdmissionSpec(policy="bouncer")
        assert "slo-shed" in available_admission_policies()

    def test_token_bucket_requires_rate(self):
        with pytest.raises(ValueError, match="rate_qps"):
            AdmissionSpec(policy="token-bucket")

    def test_rate_only_for_token_bucket(self):
        with pytest.raises(ValueError, match="does not take rate_qps"):
            AdmissionSpec(policy="unlimited", rate_qps=1.0)

    def test_fields_the_policy_does_not_read_are_rejected(self):
        with pytest.raises(
            ValueError, match="'concurrency' does not take overload_action"
        ):
            AdmissionSpec(
                policy="concurrency", max_concurrency=1, overload_action="reject",
                window_s=5, kv_threshold=0.1,
            )

    # One valid non-default value per field a built-in policy may read.
    READ_VALUES = dict(
        max_concurrency=2, rate_qps=1.0, burst=3, overload_action="delay",
        slo_p95_s=2.0, protect_class="chat", window_s=10.0, enter_factor=1.2,
        exit_factor=0.9, cooperative=True, user_rpm=30.0, app_rpm=100.0,
        kv_threshold=0.5, queue_threshold=2.0,
    )

    @pytest.mark.parametrize(
        "policy,ignored",
        [
            ("unlimited", "burst"),
            ("concurrency", "window_s"),
            ("token-bucket", "kv_threshold"),
            ("slo-shed", "user_rpm"),
            ("oit-throttle", "enter_factor"),
        ],
    )
    def test_each_policy_takes_what_it_reads_and_nothing_else(self, policy, ignored):
        reads = ADMISSION_POLICIES[policy].READS
        assert set(reads) <= set(self.READ_VALUES)
        settings = {name: self.READ_VALUES[name] for name in reads}
        assert AdmissionSpec(policy=policy, **settings).policy == policy
        with pytest.raises(ValueError, match=f"does not take {ignored}"):
            AdmissionSpec(
                policy=policy, **settings, **{ignored: self.READ_VALUES[ignored]}
            )

    def test_hysteresis_factors_ordered(self):
        with pytest.raises(ValueError, match="exit_factor"):
            AdmissionSpec(policy="slo-shed", slo_p95_s=1.0, exit_factor=1.5)

    def test_per_class_cannot_nest(self):
        inner = AdmissionSpec(
            policy="unlimited",
            per_class=(("chat", AdmissionSpec()),),
        )
        with pytest.raises(ValueError, match="cannot nest"):
            AdmissionSpec(per_class=(("agent", inner),))

    def test_concurrency_needs_a_cap_somewhere(self):
        with pytest.raises(ValueError, match="max_concurrency"):
            agent_spec(admission="concurrency")
        with pytest.raises(ValueError, match="max_concurrency"):
            AdmissionSpec(per_class=(("agent", AdmissionSpec(policy="concurrency")),))

    def test_slo_shed_needs_an_slo(self):
        with pytest.raises(ValueError, match="needs an SLO"):
            agent_spec(admission="slo-shed")

    def test_slo_shed_inherits_measurement_slo(self):
        spec = agent_spec(
            admission="slo-shed", measurement=MeasurementSpec(slo_p95_s=5.0)
        )
        assert spec.admission.policy == "slo-shed"

    def test_admission_requires_serving_arrival(self):
        with pytest.raises(ValueError, match="serving arrival"):
            agent_spec(
                arrival=ArrivalSpec(process="single", num_requests=4),
                admission="unlimited",
            )

    def test_per_class_label_must_exist(self):
        with pytest.raises(ValueError, match="unknown traffic class"):
            ExperimentSpec(
                admission=AdmissionSpec(
                    per_class=(("voice", AdmissionSpec(policy="unlimited")),)
                ),
                **MIXTURE,
            )

    def test_class_slos_label_must_exist(self):
        with pytest.raises(ValueError, match="unknown traffic class"):
            ExperimentSpec(
                measurement=MeasurementSpec(class_slos=(("voice", 1.0),)),
                **MIXTURE,
            )

    def test_round_trip_serialisation(self):
        spec = ExperimentSpec(
            measurement=MeasurementSpec(warmup_requests=2, class_slos=(("chat", 2.5),)),
            admission=AdmissionSpec(
                policy="token-bucket",
                rate_qps=2.0,
                burst=4,
                per_class=(
                    (
                        "agent",
                        AdmissionSpec(
                            policy="slo-shed", protect_class="chat", exit_factor=0.7
                        ),
                    ),
                ),
            ),
            **MIXTURE,
        )
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_every_registered_policy_builds_from_its_spec(self):
        required = {
            "concurrency": dict(max_concurrency=1),
            "token-bucket": dict(rate_qps=1.0),
            "slo-shed": dict(slo_p95_s=1.0),
        }
        probe = IdleProbe()
        for name, cls in ADMISSION_POLICIES.items():
            spec = AdmissionSpec(policy=name, **required.get(name, {}))
            policy = cls(spec, probe)
            assert isinstance(policy, AdmissionPolicy)
            assert policy.spec is spec and policy.probe is probe

    def test_custom_registered_policy_is_constructed(self):
        # A policy registered from outside overrides only decide, and runs
        # end to end: it rejects every other offer.
        offers = []

        @register_admission_policy
        class EveryOther(AdmissionPolicy):
            name = "every-other"

            def decide(self, now, traffic_class, tenant):
                offers.append(self.spec.policy)
                return ADMIT if len(offers) % 2 else REJECT

        try:
            result = run_experiment(agent_spec(admission="every-other"))
        finally:
            ADMISSION_POLICIES.pop("every-other", None)
        assert offers == ["every-other"] * 10
        assert result.num_rejected == 5
        assert result.num_completed == 5


class TestWarmupValidation:
    """warmup_requests can never silently produce an empty measured window."""

    def test_spec_build_rejects_oversized_warmup(self):
        with pytest.raises(ValueError, match="warmup_requests must be smaller"):
            ExperimentSpec(
                arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=4),
                measurement=MeasurementSpec(warmup_requests=7),
            )

    def test_spec_build_rejects_warmup_equal_to_requests(self):
        with pytest.raises(ValueError, match="warmup_requests must be smaller"):
            ExperimentSpec(
                arrival=ArrivalSpec(process="single", num_requests=3),
                measurement=MeasurementSpec(warmup_requests=3),
            )

    def test_serve_rejects_plans_shorter_than_warmup(self):
        # ServingDriver.serve(plan) takes arbitrary plans that bypass
        # spec-level validation; the driver must refuse rather than silently
        # measure an empty window.
        from repro.api import SystemBuilder, ServingDriver
        from repro.serving.loadgen import arrival_plan

        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=9),
            measurement=MeasurementSpec(warmup_requests=3),
        )
        system = SystemBuilder(spec).build()
        driver = ServingDriver(system)
        short = arrival_plan(
            [(None, system.traffic[None].workload, 1.0)], qps=2.0, num_requests=2,
            stream=system.stream.substream("plan/short"), task_pool_size=2,
        )
        with pytest.raises(ValueError, match="warmup_requests"):
            driver.serve(short)

    def test_characterization_honours_warmup(self):
        base = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(process="single", num_requests=5),
        )
        full = run_experiment(base)
        warm = run_experiment(
            base.with_overrides(measurement=MeasurementSpec(warmup_requests=2))
        )
        assert warm.num_requests == 3
        assert warm.latencies == full.latencies[2:]
