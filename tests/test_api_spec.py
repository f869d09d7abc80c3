"""Tests for the declarative experiment spec: validation and round-trips."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.agents import AgentConfig
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    SystemBuilder,
)


class TestExperimentSpecValidation:
    def test_defaults_are_valid(self):
        spec = ExperimentSpec()
        assert spec.replicas == 1
        assert spec.scheduler == "fcfs"
        assert spec.router == "round-robin"
        assert spec.arrival.process == "single"

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError, match="unknown agent"):
            ExperimentSpec(agent="daydreamer")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentSpec(workload="gsm8k")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentSpec(model="405b")

    def test_unknown_scheduler_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            ExperimentSpec(scheduler="lifo")

    def test_unknown_router_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown router policy"):
            ExperimentSpec(router="random-spray")

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError, match="replicas"):
            ExperimentSpec(replicas=0)

    def test_max_concurrency_must_be_positive_or_none(self):
        with pytest.raises(ValueError, match="max_concurrency"):
            AdmissionSpec(policy="concurrency", max_concurrency=0)
        assert AdmissionSpec(max_concurrency=None).max_concurrency is None

    def test_known_scheduler_policies_accepted(self):
        for policy in ("fcfs", "priority", "sjf-by-predicted-decode"):
            assert ExperimentSpec(scheduler=policy).scheduler == policy

    def test_known_router_policies_accepted(self):
        for router in ("round-robin", "least-loaded", "prefix-affinity"):
            assert ExperimentSpec(router=router).router == router


class TestArrivalSpecValidation:
    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalSpec(process="burst")

    def test_open_loop_requires_qps(self):
        with pytest.raises(ValueError, match="qps"):
            ArrivalSpec(process="poisson")
        with pytest.raises(ValueError, match="qps"):
            ArrivalSpec(process="uniform", qps=0.0)

    def test_closed_loop_rejects_qps(self):
        with pytest.raises(ValueError, match="do not take a qps"):
            ArrivalSpec(process="single", qps=2.0)

    def test_num_requests_positive(self):
        with pytest.raises(ValueError, match="num_requests"):
            ArrivalSpec(num_requests=0)

    def test_measurement_warmup_non_negative(self):
        with pytest.raises(ValueError, match="warmup_requests"):
            MeasurementSpec(warmup_requests=-1)

    def test_shape_requires_open_loop_process(self):
        from repro.serving.shapes import RampShape

        with pytest.raises(ValueError, match="rate shape"):
            ArrivalSpec(process="single", shape=RampShape())

    def test_shape_shorthands_coerce(self):
        from repro.serving.shapes import DiurnalShape, RampShape

        named = ArrivalSpec(process="poisson", qps=1.0, shape="diurnal")
        assert isinstance(named.shape, DiurnalShape)
        # A dict is a plain form, which only repro.api.codec decodes.
        with pytest.raises(ValueError, match="RateShape"):
            ArrivalSpec(process="poisson", qps=1.0, shape=asdict(RampShape()))
        with pytest.raises(ValueError, match="unknown rate shape"):
            ArrivalSpec(process="poisson", qps=1.0, shape="sawtooth")
        with pytest.raises(ValueError, match="RateShape"):
            ArrivalSpec(process="poisson", qps=1.0, shape=3.0)

    def test_duration_requires_open_loop_and_positive(self):
        assert ArrivalSpec(process="poisson", qps=1.0, duration_s=30.0).duration_s == 30.0
        with pytest.raises(ValueError, match="duration_s"):
            ArrivalSpec(process="single", duration_s=10.0)
        with pytest.raises(ValueError, match="duration_s"):
            ArrivalSpec(process="poisson", qps=1.0, duration_s=0.0)

    def test_workload_shape_coerces_and_validates(self):
        from repro.api import WeightedWorkload
        from repro.serving.shapes import SquareWaveShape

        mix = WeightedWorkload(
            agent="chatbot", workload="sharegpt", name="chat", shape="square-wave"
        )
        assert isinstance(mix.shape, SquareWaveShape)
        with pytest.raises(ValueError, match="shape"):
            WeightedWorkload(agent="chatbot", workload="sharegpt", shape=1.0)

    def test_warmup_must_leave_a_measured_window(self):
        with pytest.raises(ValueError, match="warmup_requests must be smaller"):
            ExperimentSpec(
                arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=3),
                measurement=MeasurementSpec(warmup_requests=3),
            )


class TestSpecRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = ExperimentSpec(
            agent="lats",
            workload="math",
            model="70b",
            replicas=3,
            scheduler="sjf-by-predicted-decode",
            router="prefix-affinity",
            enable_prefix_caching=False,
            agent_config=AgentConfig(max_iterations=4, num_children=2),
            arrival=ArrivalSpec(process="poisson", qps=1.5, num_requests=9, task_pool_size=5),
            measurement=MeasurementSpec(warmup_requests=2),
            seed=7,
            admission=AdmissionSpec(policy="concurrency", max_concurrency=12),
        )
        payload = spec.to_dict()
        assert payload["arrival"]["qps"] == 1.5
        assert payload["agent_config"]["num_children"] == 2
        assert ExperimentSpec.from_dict(payload) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = ExperimentSpec(arrival=ArrivalSpec(process="uniform", qps=2.0, num_requests=4))
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_shaped_spec_round_trip_survives_json(self):
        import json

        from repro.api import WeightedWorkload
        from repro.serving.shapes import (
            ConstantShape,
            PiecewiseShape,
            SquareWaveShape,
        )

        program = PiecewiseShape(
            segments=(
                (20.0, ConstantShape(level_value=0.5)),
                (20.0, SquareWaveShape()),
            )
        )
        spec = ExperimentSpec(
            workloads=(
                WeightedWorkload(agent="chatbot", workload="sharegpt", name="chat"),
                WeightedWorkload(
                    agent="react", workload="hotpotqa", name="agent",
                    shape=SquareWaveShape(burst_level=3.0),
                ),
            ),
            arrival=ArrivalSpec(
                process="poisson", qps=2.0, num_requests=12, shape=program,
                duration_s=60.0,
            ),
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.arrival.shape == program

    def test_from_dict_validates(self):
        payload = ExperimentSpec().to_dict()
        payload["scheduler"] = "not-a-policy"
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            ExperimentSpec.from_dict(payload)

    def test_with_overrides_revalidates(self):
        spec = ExperimentSpec()
        with pytest.raises(ValueError):
            spec.with_overrides(router="nope")
        assert spec.with_overrides(replicas=4).replicas == 4

    def test_at_qps_switches_to_poisson(self):
        spec = ExperimentSpec(arrival=ArrivalSpec(process="single", num_requests=5))
        poisson = spec.at_qps(2.5)
        assert poisson.arrival.process == "poisson"
        assert poisson.arrival.qps == 2.5
        assert poisson.arrival.num_requests == 5


class TestSystemBuilder:
    def test_builder_assembles_requested_shape(self):
        spec = ExperimentSpec(
            replicas=3,
            scheduler="priority",
            router="least-loaded",
            arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=4),
        )
        system = SystemBuilder(spec).build()
        assert system.cluster.num_replicas == 3
        assert system.cluster.default_pool.router.name == "least-loaded"
        for engine in system.cluster.replicas:
            assert engine.scheduler.policy.name == "priority"
        assert system.client.engine is system.cluster

    def test_stream_namespace_matches_legacy(self):
        single = ExperimentSpec(arrival=ArrivalSpec(process="single"))
        serving = ExperimentSpec(arrival=ArrivalSpec(process="poisson", qps=1.0))
        assert SystemBuilder(single).stream_name() == "runner/react/hotpotqa"
        assert SystemBuilder(serving).stream_name() == "serving/react/hotpotqa"
