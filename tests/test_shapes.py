"""Rate shapes: registry, validation, serialization, and shaped plans.

Covers the traffic-program vocabulary end to end: shape construction and
validation, serialization round-trips (including nested piecewise
programs through JSON), piecewise edge cases (zero-rate segments,
segment-boundary arrivals), the deterministic trace integrator, and the
thinning-based shaped plans -- including the golden identity: a constant
level-1 shape produces bit-for-bit the unshaped plans of the generators
``arrival_plan`` replaced (kept as the reference in ``test_arrival_plan``).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.api import ArrivalSpec
from repro.api.codec import from_dict
from repro.serving.loadgen import arrival_plan
from repro.serving.shapes import (
    ConstantShape,
    DiurnalShape,
    PiecewiseShape,
    RampShape,
    RateShape,
    SquareWaveShape,
    TraceShape,
    available_shapes,
    build_shape,
    deterministic_trace,
    register_shape,
)
from repro.sim.distributions import RandomStream
from repro.workloads import create_workload
from tests.test_arrival_plan import (
    reference_mixture_plan,
    reference_poisson_plan,
    reference_uniform_plan,
)


@pytest.fixture(scope="module")
def workload():
    return create_workload("sharegpt", seed=0)


# ---------------------------------------------------------------------------
# Registry and validation
# ---------------------------------------------------------------------------


class TestShapeRegistry:
    def test_builtins_registered(self):
        assert available_shapes() == [
            "constant",
            "diurnal",
            "piecewise",
            "ramp",
            "square-wave",
            "trace",
        ]

    def test_build_by_name(self):
        assert isinstance(build_shape("constant"), ConstantShape)
        assert isinstance(build_shape("RAMP", start_level=0.5), RampShape)
        with pytest.raises(ValueError, match="unknown rate shape"):
            build_shape("sawtooth")

    def test_custom_shape_registration(self):
        @register_shape
        class SpikeShape(RateShape):
            name = "spike-test"

            def level(self, t):
                return 2.0 if t < 1.0 else 0.5

            @property
            def max_level(self):
                return 2.0

        try:
            assert isinstance(build_shape("spike-test"), SpikeShape)
        finally:
            from repro.serving.shapes import RATE_SHAPES

            RATE_SHAPES.pop("spike-test", None)

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstantShape(level_value=-0.5)
        with pytest.raises(ValueError):
            RampShape(start_level=0.0, end_level=0.0)
        with pytest.raises(ValueError):
            RampShape(ramp_s=0.0)
        with pytest.raises(ValueError):
            SquareWaveShape(period_s=10.0, burst_start_s=8.0, burst_s=5.0)
        with pytest.raises(ValueError):
            DiurnalShape(mean_level=1.0, amplitude=1.5)
        with pytest.raises(ValueError):
            TraceShape(times=(0.0, 5.0, 3.0), levels=(1.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            TraceShape(times=(1.0,), levels=(1.0,))
        with pytest.raises(ValueError):
            PiecewiseShape(segments=())
        with pytest.raises(ValueError):
            PiecewiseShape(segments=((0.0, ConstantShape()),))
        with pytest.raises(ValueError, match="positive level"):
            PiecewiseShape(segments=((5.0, ConstantShape(level_value=0.0)),))

    def test_piecewise_cannot_nest(self):
        inner = PiecewiseShape(segments=((5.0, ConstantShape()),))
        with pytest.raises(ValueError, match="cannot nest"):
            PiecewiseShape(segments=((5.0, inner),))


class TestShapeLevels:
    def test_ramp_holds_end_level(self):
        ramp = RampShape(start_level=1.0, end_level=3.0, ramp_s=10.0)
        assert ramp.level(0.0) == 1.0
        assert ramp.level(5.0) == 2.0
        assert ramp.level(25.0) == 3.0
        assert ramp.max_level == 3.0

    def test_square_wave_repeats(self):
        wave = SquareWaveShape(
            base_level=1.0, burst_level=5.0, period_s=20.0, burst_start_s=5.0,
            burst_s=5.0,
        )
        for cycle in (0.0, 20.0, 40.0):
            assert wave.level(cycle + 2.0) == 1.0
            assert wave.level(cycle + 5.0) == 5.0
            assert wave.level(cycle + 9.9) == 5.0
            assert wave.level(cycle + 10.0) == 1.0
        assert wave.next_change(2.0) == 5.0
        assert wave.next_change(7.0) == 10.0
        assert wave.next_change(12.0) == 25.0

    def test_diurnal_peaks_at_quarter_period(self):
        shape = DiurnalShape(mean_level=2.0, amplitude=1.0, period_s=40.0)
        assert shape.level(10.0) == pytest.approx(3.0)
        assert shape.level(30.0) == pytest.approx(1.0)
        assert shape.max_level == 3.0

    def test_trace_replay_steps_and_holds(self):
        trace = TraceShape(times=(0.0, 10.0, 20.0), levels=(1.0, 0.0, 2.0))
        assert trace.level(5.0) == 1.0
        assert trace.level(10.0) == 0.0
        assert trace.level(19.9) == 0.0
        assert trace.level(50.0) == 2.0
        assert trace.next_change(0.0) == 10.0
        assert trace.next_change(15.0) == 20.0
        assert trace.next_change(25.0) is None

    def test_next_positive_distinguishes_dead_tails_from_troughs(self):
        dead = TraceShape(times=(0.0, 30.0), levels=(1.0, 0.0))
        assert dead.next_positive(5.0) == 5.0
        assert dead.next_positive(35.0) is None
        trough = DiurnalShape(mean_level=1.0, amplitude=1.0, period_s=40.0)
        assert trough.next_positive(30.0) == 30.0  # isolated zero, recovers
        decayed = RampShape(start_level=1.0, end_level=0.0, ramp_s=10.0)
        assert decayed.next_positive(20.0) is None
        rising = RampShape(start_level=0.0, end_level=1.0, ramp_s=10.0)
        assert rising.next_positive(0.0) == 0.0
        silent_then_active = PiecewiseShape(
            segments=(
                (10.0, ConstantShape(level_value=0.0)),
                (10.0, ConstantShape(level_value=1.0)),
            )
        )
        assert silent_then_active.next_positive(2.0) == 10.0

    def test_piecewise_segments_run_on_local_clocks(self):
        program = PiecewiseShape(
            segments=(
                (10.0, RampShape(start_level=1.0, end_level=2.0, ramp_s=10.0)),
                (10.0, ConstantShape(level_value=0.0)),
                (10.0, ConstantShape(level_value=3.0)),
            )
        )
        assert program.level(5.0) == 1.5  # ramp at local t=5
        assert program.level(15.0) == 0.0  # silent segment
        assert program.level(25.0) == 3.0
        assert program.level(95.0) == 3.0  # final segment holds
        assert program.max_level == 3.0
        # Segment boundaries are discontinuities.
        assert program.next_change(12.0) == 20.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestShapeSerialization:
    SHAPES = (
        ConstantShape(level_value=0.5),
        RampShape(start_level=0.2, end_level=4.0, ramp_s=30.0),
        SquareWaveShape(base_level=0.5, burst_level=3.0, period_s=30.0,
                        burst_start_s=10.0, burst_s=10.0),
        DiurnalShape(mean_level=2.0, amplitude=1.5, period_s=120.0, phase_s=30.0),
        TraceShape(times=(0.0, 5.0, 12.0), levels=(1.0, 3.0, 0.5)),
        PiecewiseShape(
            segments=(
                (20.0, ConstantShape(level_value=1.0)),
                (20.0, SquareWaveShape()),
                (20.0, RampShape()),
            )
        ),
    )

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.kind)
    def test_round_trip_survives_json(self, shape):
        payload = json.loads(json.dumps(asdict(shape)))
        assert payload["kind"] == shape.kind
        assert from_dict(RateShape, payload) == shape

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown rate shape"):
            from_dict(RateShape, {"kind": "sawtooth"})
        with pytest.raises(ValueError, match="unknown rate shape"):
            from_dict(RateShape, {"level_value": 1.0})

    def test_from_dict_passes_shapes_through(self):
        shape = RampShape()
        payload = {"process": "poisson", "qps": 1.0, "shape": shape}
        assert from_dict(ArrivalSpec, payload).shape is shape


# ---------------------------------------------------------------------------
# Deterministic traces
# ---------------------------------------------------------------------------


class TestDeterministicTrace:
    def test_constant_shape_matches_closed_form(self):
        trace = deterministic_trace(ConstantShape(), duration_s=10.0, qps=2.0)
        assert len(trace) == 20
        assert trace[0] == pytest.approx(0.5)
        assert trace[-1] == pytest.approx(10.0)

    def test_zero_rate_segments_are_skipped(self):
        program = PiecewiseShape(
            segments=(
                (10.0, ConstantShape(level_value=1.0)),
                (10.0, ConstantShape(level_value=0.0)),
                (10.0, ConstantShape(level_value=1.0)),
            )
        )
        trace = deterministic_trace(program, duration_s=30.0, qps=1.0)
        assert not [t for t in trace if 10.0 < t <= 20.0]
        assert len([t for t in trace if t <= 10.0]) == 10
        assert len([t for t in trace if t > 20.0]) >= 9

    def test_trailing_zero_rate_ends_the_trace(self):
        program = PiecewiseShape(
            segments=(
                (5.0, ConstantShape(level_value=1.0)),
                (5.0, ConstantShape(level_value=0.0)),
            )
        )
        trace = deterministic_trace(program, duration_s=100.0, qps=1.0)
        assert len(trace) == 5
        assert trace[-1] == pytest.approx(5.0)

    def test_max_arrivals_caps_the_trace(self):
        trace = deterministic_trace(
            ConstantShape(), duration_s=100.0, qps=1.0, max_arrivals=7
        )
        assert len(trace) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            deterministic_trace(ConstantShape(), duration_s=0.0)
        with pytest.raises(ValueError):
            deterministic_trace(ConstantShape(), duration_s=10.0, qps=0.0)


# ---------------------------------------------------------------------------
# Shaped plans
# ---------------------------------------------------------------------------


class TestShapedPlan:
    def test_identity_shape_is_bit_for_bit_legacy(self, workload):
        legacy = reference_poisson_plan(
            workload, qps=2.0, num_requests=30, stream=RandomStream(3, "p"),
            task_pool_size=8,
        )
        shaped = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, shape=ConstantShape(), num_requests=30,
            stream=RandomStream(3, "p"), task_pool_size=8,
        )
        assert shaped.arrival_times == legacy.arrival_times
        assert shaped.tasks == legacy.tasks

    def test_identity_uniform_is_bit_for_bit_legacy(self, workload):
        legacy = reference_uniform_plan(
            workload, qps=2.0, num_requests=10, task_pool_size=8
        )
        shaped = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, shape=ConstantShape(), num_requests=10,
            stream=RandomStream(3, "p"), task_pool_size=8, process="uniform",
        )
        assert shaped.arrival_times == legacy.arrival_times
        assert shaped.tasks == legacy.tasks

    def test_burst_concentrates_arrivals(self, workload):
        wave = SquareWaveShape(
            base_level=0.25, burst_level=4.0, period_s=40.0, burst_start_s=10.0,
            burst_s=10.0,
        )
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, shape=wave, num_requests=80,
            stream=RandomStream(0, "burst"), task_pool_size=8,
        )
        in_burst = [t for t in plan.arrival_times if (t % 40.0) // 10.0 == 1.0]
        # The burst window is 1/4 of the period but carries 4/4.75 of the mass.
        assert len(in_burst) > len(plan) * 0.6

    def test_duration_semantics_cap_the_span(self, workload):
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, shape=ConstantShape(), num_requests=1000,
            stream=RandomStream(0, "dur"), task_pool_size=8, process="uniform",
            duration_s=15.0,
        )
        assert plan.arrival_times[-1] <= 15.0
        assert len(plan) == 30

    def test_boundary_arrival_lands_inside_duration(self, workload):
        # qps=1 uniform arrivals land exactly on integer seconds; the arrival
        # at t == duration_s is inside the closed span.
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=1.0, shape=ConstantShape(), num_requests=100,
            stream=RandomStream(0, "edge"), task_pool_size=8, process="uniform",
            duration_s=5.0,
        )
        assert plan.arrival_times == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_poisson_zero_rate_tail_ends_the_stream(self, workload):
        # A trace whose rate dies for good must end the plan, not stall the
        # thinning loop: count semantics simply come up short.
        dead_tail = TraceShape(times=(0.0, 30.0), levels=(1.0, 0.0))
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, shape=dead_tail, num_requests=500,
            stream=RandomStream(0, "tail"), task_pool_size=8,
        )
        assert 0 < len(plan) < 500
        assert all(t <= 30.0 + 1e-9 for t in plan.arrival_times)

    def test_poisson_skips_silent_windows(self, workload):
        program = PiecewiseShape(
            segments=(
                (10.0, ConstantShape(level_value=1.0)),
                (10.0, ConstantShape(level_value=0.0)),
                (10.0, ConstantShape(level_value=1.0)),
            )
        )
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, shape=program, num_requests=40,
            stream=RandomStream(0, "silent"), task_pool_size=8,
        )
        assert not [t for t in plan.arrival_times if 10.0 < t <= 20.0]
        assert [t for t in plan.arrival_times if t > 20.0]

    def test_all_zero_plan_rejected(self, workload):
        program = PiecewiseShape(
            segments=(
                (10.0, ConstantShape(level_value=0.0)),
                (10.0, ConstantShape(level_value=1.0)),
            )
        )
        with pytest.raises(ValueError, match="no arrivals"):
            arrival_plan(
                [(None, workload, 1.0)], qps=1.0, shape=program, num_requests=10,
                stream=RandomStream(0, "z"), task_pool_size=8, process="uniform",
                duration_s=10.0,
            )

    def test_rejects_bad_inputs(self, workload):
        with pytest.raises(ValueError, match="RateShape"):
            arrival_plan(
                [(None, workload, 1.0)], qps=1.0, shape="burst", num_requests=5,
                stream=RandomStream(0, "x"),
            )
        with pytest.raises(ValueError, match="duration_s"):
            arrival_plan(
                [(None, workload, 1.0)], qps=1.0, shape=ConstantShape(), num_requests=5,
                stream=RandomStream(0, "x"), duration_s=-1.0,
            )
        with pytest.raises(ValueError, match="poisson/uniform"):
            arrival_plan(
                [(None, workload, 1.0)], qps=1.0, shape=ConstantShape(), num_requests=5,
                stream=RandomStream(0, "x"), process="sequential",
            )


class TestShapedMixture:
    def _components(self, workload):
        other = create_workload("sharegpt", seed=1)
        return [("chat", workload, 0.5), ("agent", other, 0.5)]

    def test_unshaped_mixture_is_bit_for_bit_legacy(self, workload):
        components = self._components(workload)
        legacy = reference_mixture_plan(
            components, qps=2.0, num_requests=20, stream=RandomStream(0, "m"),
            task_pool_size=8,
        )
        with_nones = [entry + (None,) for entry in components]
        modern = arrival_plan(
            with_nones, qps=2.0, num_requests=20, stream=RandomStream(0, "m"),
            task_pool_size=8, shape=ConstantShape(),
        )
        assert modern.arrival_times == legacy.arrival_times
        assert modern.tasks == legacy.tasks
        assert modern.traffic_classes == legacy.traffic_classes

    def test_per_class_shape_bursts_independently(self, workload):
        wave = SquareWaveShape(
            base_level=0.1, burst_level=5.0, period_s=30.0, burst_start_s=10.0,
            burst_s=10.0,
        )
        components = self._components(workload)
        shaped = [components[0] + (None,), components[1] + (wave,)]
        plan = arrival_plan(
            shaped, qps=3.0, num_requests=60, stream=RandomStream(0, "m"),
            task_pool_size=8,
        )
        agent_times = [
            t for t, label in zip(plan.arrival_times, plan.traffic_classes)
            if label == "agent"
        ]
        in_burst = [t for t in agent_times if 10.0 <= (t % 30.0) < 20.0]
        assert agent_times and len(in_burst) >= len(agent_times) * 0.6
        # The plan stays merged in time order with every arrival labelled.
        assert plan.arrival_times == sorted(plan.arrival_times)
        assert set(plan.traffic_classes) == {"chat", "agent"}

    def test_shaped_mixture_duration_semantics(self, workload):
        components = [entry + (None,) for entry in self._components(workload)]
        plan = arrival_plan(
            components, qps=2.0, num_requests=1000, stream=RandomStream(0, "m"),
            task_pool_size=8, process="uniform", duration_s=12.0,
        )
        assert plan.arrival_times[-1] <= 12.0
        # Two classes at 1 qps each => ~24 arrivals inside the span.
        assert len(plan) == 24

    def test_uniform_class_that_dies_under_a_periodic_program_ends(self, workload):
        # A square wave has step boundaries forever: a class whose own shape
        # dies for good must end its deterministic stream instead of walking
        # those boundaries without end.
        dead_tail = TraceShape(times=(0.0, 8.0), levels=(1.0, 0.0))
        wave = SquareWaveShape(
            base_level=0.5, burst_level=3.0, period_s=12.0, burst_start_s=4.0,
            burst_s=4.0,
        )
        components = self._components(workload)
        plan = arrival_plan(
            [components[0] + (dead_tail,), components[1]], qps=2.0,
            num_requests=40, stream=RandomStream(0, "m"), task_pool_size=8,
            process="uniform", shape=wave,
        )
        assert len(plan) == 40
        chat_times = [
            t for t, label in zip(plan.arrival_times, plan.traffic_classes)
            if label == "chat"
        ]
        # Rate integration may land the last arrival one gap past the death.
        assert chat_times and chat_times[-1] < 9.0 < plan.arrival_times[-1]

    def test_shaped_mixture_is_deterministic(self, workload):
        wave = SquareWaveShape(
            base_level=0.5, burst_level=2.0, period_s=20.0, burst_start_s=5.0,
            burst_s=5.0,
        )
        components = [entry + (wave,) for entry in self._components(workload)]
        first = arrival_plan(
            components, qps=2.0, num_requests=30, stream=RandomStream(7, "m"),
            task_pool_size=8,
        )
        second = arrival_plan(
            components, qps=2.0, num_requests=30, stream=RandomStream(7, "m"),
            task_pool_size=8,
        )
        assert first.arrival_times == second.arrival_times
        assert first.traffic_classes == second.traffic_classes
