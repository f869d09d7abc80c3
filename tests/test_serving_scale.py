"""Serving-scale behaviour: concurrency gating, knee hardening, replica scaling."""

from __future__ import annotations

from typing import List, Sequence

import pytest

from repro.agents import AgentConfig
from repro.analysis import peak_throughput
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ExperimentSpec,
    StudyAxis,
    ResultSet,
    StudySpec,
    run_experiment,
    run_study,
)
from repro.serving import ServingResult


def qps_study(spec: ExperimentSpec, qps_values: Sequence[float]) -> List[ResultSet]:
    """Outcomes of a one-axis qps study over ``spec``, one per load."""
    study = StudySpec(base=spec, axes=(StudyAxis(name="qps", values=tuple(qps_values)),))
    return [point.outcome for point in run_study(study).points]


def concurrency_cap(limit: int) -> AdmissionSpec:
    return AdmissionSpec(policy="concurrency", max_concurrency=limit)


def agent_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        agent="react",
        workload="hotpotqa",
        model="8b",
        agent_config=AgentConfig(max_iterations=5),
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestMaxConcurrencyEnforcement:
    ARRIVAL = ArrivalSpec(process="poisson", qps=3.0, num_requests=10, task_pool_size=8)

    def test_unlimited_concurrency_never_queues(self):
        result = run_experiment(agent_spec(arrival=self.ARRIVAL))
        assert result.num_queued == 0
        assert result.mean_admission_delay == 0.0
        assert len(result.admission_delays) == 10

    def test_gate_queues_excess_requests_and_reports_delay(self):
        result = run_experiment(
            agent_spec(arrival=self.ARRIVAL, admission=concurrency_cap(2))
        )
        assert result.num_completed == 10
        assert result.num_queued > 0
        assert result.mean_admission_delay > 0.0
        assert result.p95_admission_delay >= result.mean_admission_delay

    def test_tighter_gate_increases_latency(self):
        open_door = run_experiment(agent_spec(arrival=self.ARRIVAL))
        gated = run_experiment(
            agent_spec(arrival=self.ARRIVAL, admission=concurrency_cap(1))
        )
        assert gated.mean_latency > open_door.mean_latency
        assert gated.mean_admission_delay > open_door.mean_admission_delay

    def test_driver_serves_one_plan(self):
        from repro.api import ServingDriver, SystemBuilder
        from repro.api.runners import _build_plan

        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=4),
            admission=concurrency_cap(1),
        )
        system = SystemBuilder(spec).build()
        driver = ServingDriver(system)
        first = driver.serve(_build_plan(system))
        assert len(first.admission_delays) == 4
        with pytest.raises(RuntimeError, match="one plan"):
            driver.serve(_build_plan(system))


class TestPeakThroughputHardening:
    def _result(self, qps: float, p95: float, completed: int = 10) -> ResultSet:
        # Fabricate a latency distribution with the desired p95 by reusing a
        # single value; ResultSet derives p95 from the runs' latencies.
        serving = ServingResult(
            offered_qps=qps,
            num_requests=completed,
            results=[_FakeRun(p95) for _ in range(completed)],
            duration=1.0,
        )
        return ResultSet(spec=ExperimentSpec(), serving=serving)

    def test_zero_baseline_does_not_collapse_threshold(self):
        sweep = [self._result(0.5, 0.0), self._result(1.0, 2.0), self._result(2.0, 3.0)]
        # Seed behaviour: threshold = 0 * 3 = 0 -> only the zero-latency point
        # qualifies.  Hardened behaviour: baseline falls back to the smallest
        # positive p95 (2.0), threshold 6.0, so every point qualifies.
        assert peak_throughput(sweep) == pytest.approx(10.0 / 1.0)

    def test_all_zero_latencies_count_completed_points(self):
        sweep = [self._result(0.5, 0.0), self._result(1.0, 0.0)]
        assert peak_throughput(sweep) > 0.0

    def test_explicit_slo_still_respected(self):
        sweep = [self._result(0.5, 1.0), self._result(1.0, 9.0)]
        assert peak_throughput(sweep, latency_slo_s=2.0) == pytest.approx(10.0)

    def test_empty_sweep_is_zero(self):
        assert peak_throughput([]) == 0.0

    def test_warmup_opens_measured_window_at_boundary(self):
        from repro.api import MeasurementSpec

        arrival = ArrivalSpec(process="poisson", qps=2.0, num_requests=8, task_pool_size=6)
        base = ExperimentSpec(agent="chatbot", workload="sharegpt", arrival=arrival)
        full = run_experiment(base)
        warm = run_experiment(
            base.with_overrides(measurement=MeasurementSpec(warmup_requests=3))
        )
        # Same simulation, smaller measured window: duration and energy must
        # shrink, so derived rates are not diluted by the warm-up period.
        assert warm.duration < full.duration
        assert warm.energy_wh < full.energy_wh
        assert warm.num_requests == 5
        assert warm.num_completed == 5
        assert warm.latencies == full.latencies[3:]

    def test_warmup_trimmed_sweep_still_reports_peak(self):
        from repro.api import MeasurementSpec

        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            measurement=MeasurementSpec(warmup_requests=2),
            arrival=ArrivalSpec(process="single", num_requests=8, task_pool_size=6),
        )
        sweep = qps_study(spec, (1.0, 2.0))
        # Warm-up trimming shrinks both completions and the issued count, so
        # the 95%-completion knee gate still passes on healthy runs.
        for result in sweep:
            assert result.num_requests == 6
            assert result.num_completed == 6
        assert peak_throughput(sweep) > 0.0


class _FakeRun:
    """Minimal stand-in for AgentRunResult (only e2e_latency is read)."""

    def __init__(self, latency: float):
        self.e2e_latency = latency
        self.answer_correct = True


class TestReplicaScaling:
    """Fig-11-style sweeps: 4 replicas must out-sustain 1 for every router."""

    QPS_GRID = (2.0, 8.0, 16.0)

    @classmethod
    def _template(cls) -> ExperimentSpec:
        return ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            model="8b",
            arrival=ArrivalSpec(process="single", num_requests=40, task_pool_size=10),
            seed=0,
        )

    @classmethod
    def _single_replica_peak(cls) -> float:
        if not hasattr(cls, "_cached_single_peak"):
            cls._cached_single_peak = peak_throughput(qps_study(cls._template(), cls.QPS_GRID))
        return cls._cached_single_peak

    @pytest.mark.parametrize("router", ["round-robin", "least-loaded", "prefix-affinity"])
    def test_four_replicas_beat_one(self, router):
        sweep = qps_study(
            self._template().with_overrides(replicas=4, router=router), self.QPS_GRID
        )
        single_peak = self._single_replica_peak()
        assert single_peak > 0
        assert peak_throughput(sweep) > single_peak
        # Every load point completes.
        for result in sweep:
            assert result.num_completed == result.num_requests
            assert result.serving.num_replicas == 4
