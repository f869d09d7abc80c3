"""The spec codec: every spec type round-trips through one decoder.

``repro.api.codec.from_dict`` rebuilds any spec from its
``dataclasses.asdict`` form by the declared field types, and
``StudySpec.from_dict`` decodes each axis value and point coordinate by the
declared type at its path.  One experiment here nests every spec type and
one study sweeps an axis over each nested field, so a nested field the
codec cannot rebuild fails a JSON round trip below.  Constructors take
bare names as shorthand but no dict: a dict is a plain form.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

import pytest

from repro.agents import AgentConfig
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    HardwareSpec,
    MeasurementSpec,
    PoolSpec,
    SessionSpec,
    SpeculativeSpec,
    StudyAxis,
    StudySpec,
    TenantSpec,
    WeightedWorkload,
    apply_axis_value,
)
from repro.api.codec import field_type, from_dict
from repro.serving.shapes import (
    ConstantShape,
    PiecewiseShape,
    RampShape,
    SquareWaveShape,
    TraceShape,
)


def json_round_trip(payload):
    return json.loads(json.dumps(payload))


def everything_spec() -> ExperimentSpec:
    """One experiment that nests every spec type the codec must rebuild."""
    return ExperimentSpec(
        agent_config=AgentConfig(max_iterations=4, num_children=2),
        arrival=ArrivalSpec(
            process="poisson",
            qps=4.0,
            num_requests=12,
            task_pool_size=6,
            shape=SquareWaveShape(burst_level=2.0),
            duration_s=60.0,
            tenants=TenantSpec(num_users=500, skew=1.4, num_apps=5),
            sessions=SessionSpec(turns=2, followup_tokens=16, think_time_s=1.0),
        ),
        measurement=MeasurementSpec(
            warmup_requests=1, slo_p95_s=30.0, class_slos=(("chat", 2.5),)
        ),
        seed=3,
        admission=AdmissionSpec(
            per_class=(
                (
                    "agent",
                    AdmissionSpec(
                        policy="slo-shed", protect_class="chat", cooperative=True
                    ),
                ),
            )
        ),
        pools=(
            PoolSpec(
                name="chat",
                traffic_classes=("chat",),
                hardware=HardwareSpec(gpu="H100-80GB"),
                speculative=SpeculativeSpec(acceptance=0.8),
            ),
            PoolSpec(
                name="agent",
                replicas=2,
                traffic_classes=("agent",),
                hardware=HardwareSpec(gpu="L4", gpu_memory_utilization=0.85),
            ),
        ),
        workloads=(
            WeightedWorkload(
                agent="chatbot",
                workload="sharegpt",
                weight=0.6,
                name="chat",
                shape=PiecewiseShape(
                    segments=(
                        (10.0, TraceShape(times=(0.0, 4.0), levels=(1.0, 3.0))),
                        (10.0, ConstantShape(level_value=0.5)),
                    )
                ),
                tenants=TenantSpec(num_users=50),
                sessions=SessionSpec(turns=3, think_time="constant"),
            ),
            WeightedWorkload(
                agent="react",
                workload="hotpotqa",
                weight=0.4,
                name="agent",
                agent_config=AgentConfig(max_iterations=3),
            ),
        ),
        autoscaler=AutoscalerSpec(
            pool="agent", mode="predictive", forecaster="holt", max_replicas=3
        ),
        prefill_chunk_tokens=256,
        speculative=SpeculativeSpec(num_speculative_tokens=3),
        hardware=HardwareSpec(gpu="A100-80GB", tensor_parallel=2),
    )


def serving_base() -> ExperimentSpec:
    return ExperimentSpec(
        workloads=(
            WeightedWorkload(agent="chatbot", workload="sharegpt", name="chat"),
            WeightedWorkload(agent="react", workload="hotpotqa", name="agent"),
        ),
        arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=6),
        measurement=MeasurementSpec(class_slos=(("chat", 5.0),)),
    )


def everything_study() -> StudySpec:
    """One axis on each nested field, spec values and shorthands alike."""
    sessions = SessionSpec(turns=2)
    return StudySpec(
        base=serving_base(),
        axes=(
            StudyAxis(
                name="door",
                field="admission",
                values=(
                    "unlimited",
                    AdmissionSpec(policy="slo-shed", protect_class="chat"),
                ),
            ),
            StudyAxis(
                name="mix",
                field="workloads",
                values=(
                    (
                        WeightedWorkload(
                            agent="chatbot", workload="sharegpt", name="chat",
                            shape=RampShape(),
                        ),
                        WeightedWorkload(
                            agent="react", workload="hotpotqa", name="agent",
                            agent_config=AgentConfig(max_trials=2),
                            sessions=sessions,
                        ),
                    ),
                ),
            ),
            StudyAxis(
                name="slos",
                field="measurement.class_slos",
                values=((("chat", 4.0), ("agent", 40.0)),),
            ),
            StudyAxis(
                name="traffic",
                field="arrival",
                values=(
                    ArrivalSpec(
                        process="uniform", qps=3.0, num_requests=8,
                        shape="diurnal", tenants=TenantSpec(num_users=20),
                    ),
                ),
            ),
            StudyAxis(
                name="turns", field="arrival.sessions", values=(None, sessions)
            ),
            StudyAxis(
                name="gpu",
                field="hardware",
                values=("H100-80GB", HardwareSpec(gpu="L4")),
            ),
            StudyAxis(
                name="spec", field="speculative", values=(SpeculativeSpec(),)
            ),
            StudyAxis(
                name="fleet",
                field="pools",
                values=(
                    (
                        PoolSpec(name="chat", traffic_classes=("chat",)),
                        PoolSpec(
                            name="agent", traffic_classes=("agent",),
                            hardware="H100-80GB",
                            speculative=SpeculativeSpec(acceptance=0.5),
                        ),
                    ),
                ),
            ),
            StudyAxis(
                name="window",
                field="measurement",
                values=(
                    MeasurementSpec(warmup_requests=1, class_slos=(("chat", 3.0),)),
                ),
            ),
            StudyAxis(
                name="scaler",
                field="autoscaler",
                values=(
                    None,
                    AutoscalerSpec(mode="predictive", forecaster="ewma"),
                ),
            ),
            StudyAxis(
                name="knobs",
                field="agent_config",
                values=(AgentConfig(max_iterations=2, num_few_shot=0),),
            ),
        ),
        seeds=(0, 1),
        name="every-nested-type",
    )


class TestRoundTrips:
    def test_every_nested_spec_type_survives_json(self):
        spec = everything_spec()
        assert spec.to_dict() == asdict(spec)
        assert from_dict(ExperimentSpec, json_round_trip(spec.to_dict())) == spec
        assert ExperimentSpec.from_dict(json_round_trip(spec.to_dict())) == spec

    def test_round_trip_without_json_keeps_tuples(self):
        spec = everything_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_study_with_an_axis_on_every_nested_field_survives_json(self):
        study = everything_study()
        assert len(study.expand()) == 2 * 2 * 2 * 2 * 2
        assert StudySpec.from_dict(json_round_trip(study.to_dict())) == study

    def test_points_study_decodes_each_coordinate_by_its_path(self):
        study = StudySpec(
            base=serving_base(),
            points=(
                {"qps": 1.5, "agent_config.max_trials": 2, "arrival.shape": RampShape()},
                {"qps": 3, "arrival.shape": "square-wave", "hardware": HardwareSpec()},
            ),
        )
        rebuilt = StudySpec.from_dict(json_round_trip(study.to_dict()))
        assert rebuilt == study
        assert rebuilt.points[0]["arrival.shape"] == RampShape()

    def test_study_values_are_written_as_the_field_they_replace(self):
        study = everything_study()
        for axis, written in zip(study.axes, study.to_dict()["axes"]):
            for value, plain in zip(axis.values, written["values"]):
                if isinstance(value, str):
                    assert plain == value  # a shorthand is written as given
                    continue
                field = apply_axis_value(study.base, axis.path, value).to_dict()
                for part in axis.path.split("."):
                    field = field[part]
                assert plain == field, axis.name

    def test_field_type_follows_dotted_paths(self):
        assert field_type(ExperimentSpec, "arrival.sessions.turns") is int
        assert field_type(ExperimentSpec, "agent_config") is AgentConfig
        assert field_type(ExperimentSpec, "arrival.no_such_field") is Any
        assert field_type(ExperimentSpec, "arrival.shape.level_value") is Any


class TestRejections:
    def test_unknown_key_raises_type_error(self):
        payload = ExperimentSpec().to_dict()
        payload["bogus"] = 1
        with pytest.raises(TypeError):
            from_dict(ExperimentSpec, payload)
        payload = everything_spec().to_dict()
        payload["pools"][0]["bogus"] = 1
        with pytest.raises(TypeError):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize("shape", [{"kind": "sawtooth"}, {"level_value": 1.0}])
    def test_unknown_or_missing_shape_kind(self, shape):
        payload = {"process": "poisson", "qps": 1.0, "shape": shape}
        with pytest.raises(ValueError, match="unknown rate shape"):
            from_dict(ArrivalSpec, payload)

    def test_validation_still_runs_in_the_constructor(self):
        payload = everything_spec().to_dict()
        payload["arrival"]["sessions"]["turns"] = 0
        with pytest.raises(ValueError, match="turns"):
            ExperimentSpec.from_dict(payload)

    OPEN_LOOP = dict(process="poisson", qps=1.0)
    MIX = dict(agent="chatbot", workload="sharegpt")

    @pytest.mark.parametrize(
        "cls,kwargs,field,value",
        [
            (ArrivalSpec, OPEN_LOOP, "shape", RampShape()),
            (ArrivalSpec, OPEN_LOOP, "tenants", TenantSpec()),
            (ArrivalSpec, OPEN_LOOP, "sessions", SessionSpec()),
            (PoolSpec, dict(name="p"), "speculative", SpeculativeSpec()),
            (PoolSpec, dict(name="p"), "hardware", HardwareSpec()),
            (WeightedWorkload, MIX, "shape", RampShape()),
            (WeightedWorkload, MIX, "tenants", TenantSpec()),
            (WeightedWorkload, MIX, "sessions", SessionSpec()),
            (ExperimentSpec, {}, "speculative", SpeculativeSpec()),
            (ExperimentSpec, {}, "hardware", HardwareSpec()),
        ],
        ids=lambda entry: entry if isinstance(entry, str) else None,
    )
    def test_constructors_reject_a_dict(self, cls, kwargs, field, value):
        assert getattr(cls(**kwargs, **{field: value}), field) == value
        with pytest.raises(ValueError):
            cls(**kwargs, **{field: asdict(value)})
