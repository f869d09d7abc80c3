"""Tests for the agent serving system, load generation, and QPS sweeps."""

from __future__ import annotations

from typing import List, Sequence

import pytest

from repro.agents import AgentConfig
from repro.analysis import peak_throughput
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    ResultSet,
    StudyAxis,
    StudySpec,
    run_experiment,
    run_study,
)
from repro.serving import ArrivalPlan, arrival_plan
from repro.sim import RandomStream
from repro.workloads import create_workload


class TestArrivalPlans:
    def test_poisson_plan_shapes(self):
        workload = create_workload("hotpotqa", seed=1)
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, num_requests=50, stream=RandomStream(1, "p")
        )
        assert len(plan) == 50
        assert plan.offered_qps == pytest.approx(2.0, rel=0.4)
        assert all(b >= a for a, b in zip(plan.arrival_times, plan.arrival_times[1:]))

    def test_poisson_plan_requires_requests(self):
        workload = create_workload("hotpotqa", seed=1)
        with pytest.raises(ValueError):
            arrival_plan(
                [(None, workload, 1.0)], qps=1.0, num_requests=0,
                stream=RandomStream(1, "p"),
            )

    def test_uniform_plan_evenly_spaced(self):
        workload = create_workload("webshop", seed=1)
        plan = arrival_plan(
            [(None, workload, 1.0)], qps=2.0, num_requests=4,
            stream=RandomStream(1, "u"), process="uniform",
        )
        gaps = [b - a for a, b in zip(plan.arrival_times, plan.arrival_times[1:])]
        assert all(gap == pytest.approx(0.5) for gap in gaps)

    def test_mismatched_lengths_rejected(self):
        workload = create_workload("hotpotqa", seed=1)
        tasks = workload.sample_tasks(2)
        with pytest.raises(ValueError):
            ArrivalPlan(arrival_times=[0.0], tasks=tasks)

    def test_decreasing_arrival_times_rejected(self):
        workload = create_workload("hotpotqa", seed=1)
        tasks = workload.sample_tasks(2)
        with pytest.raises(ValueError):
            ArrivalPlan(arrival_times=[2.0, 1.0], tasks=tasks)


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        agent="react",
        workload="hotpotqa",
        model="8b",
        agent_config=AgentConfig(max_iterations=5),
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def serve(qps: float, num_requests: int, task_pool_size: int = 48, **overrides) -> ResultSet:
    """One open-loop Poisson run of :func:`small_spec`."""
    arrival = ArrivalSpec(
        process="poisson", qps=qps, num_requests=num_requests, task_pool_size=task_pool_size
    )
    return run_experiment(small_spec(arrival=arrival, **overrides))


def qps_sweep(
    qps_values: Sequence[float], num_requests: int, task_pool_size: int = 48, **overrides
) -> List[ResultSet]:
    """A one-axis qps study of :func:`small_spec`; one outcome per load."""
    arrival = ArrivalSpec(
        process="single", num_requests=num_requests, task_pool_size=task_pool_size
    )
    study = StudySpec(
        base=small_spec(arrival=arrival, **overrides),
        axes=(StudyAxis(name="qps", values=tuple(qps_values)),),
    )
    return [point.outcome for point in run_study(study).points]


class TestOpenLoopServing:
    def test_open_loop_serving_completes_all_requests(self):
        result = serve(1.0, num_requests=12, task_pool_size=8)
        assert result.num_completed == 12
        assert result.throughput_qps > 0
        assert result.p95_latency >= result.latency_stats.p50
        assert result.energy_wh > 0

    def test_concurrent_serving_beats_sequential_throughput(self):
        sequential = run_experiment(
            small_spec(arrival=ArrivalSpec(process="single", num_requests=8))
        )
        concurrent = serve(2.0, num_requests=8, task_pool_size=8)
        assert concurrent.throughput_qps > sequential.throughput_qps

    def test_chatbot_serving_has_low_latency_variance(self):
        result = serve(
            2.0, num_requests=15, task_pool_size=15, agent="chatbot", workload="sharegpt"
        )
        assert result.num_completed == 15
        assert result.p95_latency < 4 * result.latency_stats.p50 + 1.0

    def test_higher_load_increases_tail_latency(self):
        low = serve(0.3, num_requests=15, task_pool_size=10)
        high = serve(4.0, num_requests=15, task_pool_size=10)
        assert high.p95_latency > low.p95_latency

    def test_prefix_caching_improves_hit_rate_and_latency(self):
        cached = serve(1.0, num_requests=12, enable_prefix_caching=True)
        uncached = serve(1.0, num_requests=12, enable_prefix_caching=False)
        assert cached.serving.prefix_cache_hit_rate > 0.5
        assert uncached.serving.prefix_cache_hit_rate == 0.0
        assert cached.p95_latency <= uncached.p95_latency * 1.05

    def test_kv_memory_lower_with_prefix_caching(self):
        cached = serve(0.5, num_requests=12, enable_prefix_caching=True)
        uncached = serve(0.5, num_requests=12, enable_prefix_caching=False)
        assert cached.serving.kv_average_bytes < uncached.serving.kv_average_bytes
        assert cached.serving.kv_max_bytes <= uncached.serving.kv_max_bytes

    def test_energy_per_query_positive(self):
        result = serve(0.5, num_requests=6)
        assert result.energy_wh_per_query > 0

    def test_serving_result_accuracy_in_unit_range(self):
        result = serve(0.5, num_requests=10)
        assert 0.0 <= result.accuracy <= 1.0


class TestQpsSweep:
    def test_sweep_produces_one_result_per_qps(self):
        sweep = qps_sweep((0.5, 1.0), num_requests=8, task_pool_size=8)
        assert len(sweep) == 2
        assert [result.serving.offered_qps for result in sweep] == [
            pytest.approx(0.5, rel=0.6),
            pytest.approx(1.0, rel=0.6),
        ]
        assert all(result.p95_latency > 0 for result in sweep)

    def test_peak_throughput_positive_and_bounded(self):
        peak = peak_throughput(qps_sweep((0.25, 0.5, 1.0), num_requests=10))
        assert 0 < peak <= 1.5

    def test_peak_throughput_empty_sweep_is_zero(self):
        assert peak_throughput([], latency_slo_s=5.0) == 0.0

    def test_sharegpt_peak_higher_than_agent_peak(self):
        agent_sweep = qps_sweep((0.5, 1.0), num_requests=10)
        chatbot_sweep = qps_sweep(
            (2.0, 4.0), num_requests=10, agent="chatbot", workload="sharegpt"
        )
        assert peak_throughput(chatbot_sweep) > peak_throughput(agent_sweep)


def characterize(agent: str, workload: str, num_tasks: int = 20, **overrides):
    """Single-arrival (one request at a time) characterization at seed 1."""
    spec = ExperimentSpec(
        agent=agent,
        workload=workload,
        model="8b",
        arrival=ArrivalSpec(process="single", num_requests=num_tasks),
        seed=1,
        **overrides,
    )
    return run_experiment(spec)


class TestCharacterizationRun:
    def test_runner_produces_observations_with_engine_metrics(self):
        result = characterize("react", "hotpotqa", num_tasks=3)
        assert result.num_requests == 3
        for observation in result.characterization.observations:
            assert observation.energy_wh > 0
            assert observation.gpu.total > 0
            assert observation.kv_max_bytes > 0
        assert result.mean_llm_calls >= 2
        assert 0 <= result.accuracy <= 1

    def test_gpu_idle_fraction_larger_for_slow_tools(self):
        hotpot = characterize("react", "hotpotqa", num_tasks=4)
        webshop = characterize("react", "webshop", num_tasks=4)
        assert hotpot.gpu_breakdown().fractions["idle"] > webshop.gpu_breakdown().fractions["idle"]
