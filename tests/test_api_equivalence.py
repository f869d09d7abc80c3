"""Golden pins: the spec path reproduces the seed simulator bit-for-bit.

The characterization golden was captured by running the original
hand-wired single-request runner (commit ``c26818c``); the serving goldens
are exact-decode runs of the configurations used here, identical under the
per-token seam (``tests/per_token.py``).  Every metric is asserted with zero
tolerance: one replica under FCFS scheduling through ``run_experiment``
must stay event-for-event identical.  If an engine or scheduler change is
*supposed* to shift these numbers, regenerate them on purpose; never
loosen them to approx.
"""

from __future__ import annotations

import pytest

from repro.agents import AgentConfig
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment


class TestCharacterizationGolden:
    """react/hotpotqa, 8B, 3 single-arrival requests, seed 1."""

    GOLDEN = {
        "mean_latency": 16.668997844782456,
        "accuracy": 0.3333333333333333,
        "energy_wh_per_query": 0.8561984437107726,
        "mean_llm_calls": 7.0,
        "mean_total_tokens": 7180.333333333333,
    }

    def test_spec_through_new_api_matches_seed(self):
        spec = ExperimentSpec(
            agent="react",
            workload="hotpotqa",
            model="8b",
            replicas=1,
            scheduler="fcfs",
            arrival=ArrivalSpec(process="single", num_requests=3),
            seed=1,
        )
        outcome = run_experiment(spec)
        for metric, expected in self.GOLDEN.items():
            assert getattr(outcome, metric) == expected, metric


class TestServingGolden:
    """react/hotpotqa, Poisson 1 qps, 10 requests, pool 8, seed 0."""

    # Re-pinned at exact decode (one token per step) when the approximate
    # decode chunking these runs used was deleted.  GOLDEN holds ResultSet
    # metrics; RECORD holds fields of the wrapped ServingResult.
    GOLDEN = {
        "mean_latency": 10.646407395255261,
        "p95_latency": 15.151794256321168,
        "energy_wh": 1.530517725786379,
        "throughput_qps": 0.43800395819435634,
        "duration": 22.83084390658105,
    }
    RECORD = {
        "kv_average_bytes": 153650818.11970353,
        "preemptions": 0,
        "prefix_cache_hit_rate": 0.9135721327637201,
    }

    @classmethod
    def check(cls, outcome):
        for metric, expected in cls.GOLDEN.items():
            assert getattr(outcome, metric) == expected, metric
        for name, expected in cls.RECORD.items():
            assert getattr(outcome.serving, name) == expected, name

    def _spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            agent="react",
            workload="hotpotqa",
            model="8b",
            replicas=1,
            scheduler="fcfs",
            agent_config=AgentConfig(max_iterations=5),
            arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=10, task_pool_size=8),
            seed=0,
        )

    def test_spec_through_new_api_matches_seed(self):
        self.check(run_experiment(self._spec()))

    def test_chatbot_serving_golden(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            model="8b",
            arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=12, task_pool_size=8),
            seed=3,
        )
        result = run_experiment(spec)
        # Re-pinned at exact decode when approximate decode chunking was deleted.
        assert result.mean_latency == 5.129143362404462
        assert result.p95_latency == 9.723356564694797
        assert result.energy_wh == 1.028324972396009
        assert result.throughput_qps == 0.8776463353494244


class TestTrafficProgramCompat:
    """Shapes and studies must not perturb the golden-pinned serving run."""

    def _spec(self, **overrides) -> ExperimentSpec:
        base = dict(
            agent="react",
            workload="hotpotqa",
            model="8b",
            replicas=1,
            scheduler="fcfs",
            agent_config=AgentConfig(max_iterations=5),
            arrival=ArrivalSpec(
                process="poisson", qps=1.0, num_requests=10, task_pool_size=8
            ),
            seed=0,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_legacy_spec_has_no_shape(self):
        spec = self._spec()
        assert spec.arrival.shape is None
        assert spec.arrival.duration_s is None

    def test_identity_shape_matches_golden_bit_for_bit(self):
        from repro.api import run_experiment
        from repro.serving.shapes import ConstantShape

        shaped = self._spec(
            arrival=ArrivalSpec(
                process="poisson", qps=1.0, num_requests=10, task_pool_size=8,
                shape=ConstantShape(),
            )
        )
        TestServingGolden.check(run_experiment(shaped))

    def test_sweep_golden_pin(self):
        """A one-axis qps study at the golden serving config reproduces the pin."""
        from repro.api import StudyAxis, StudySpec, run_study

        study = run_study(
            StudySpec(base=self._spec(), axes=(StudyAxis(name="qps", values=(1.0,)),))
        )
        TestServingGolden.check(study.points[0].outcome)


class TestResultSetInterface:
    def test_wraps_exactly_one_result(self):
        from repro.api import ResultSet

        with pytest.raises(ValueError):
            ResultSet(spec=ExperimentSpec())

    def test_serving_summary_fields(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=5, task_pool_size=5),
        )
        outcome = run_experiment(spec)
        summary = outcome.summary()
        assert summary["kind"] == "serving"
        assert summary["num_completed"] == 5
        assert summary["throughput_qps"] == outcome.throughput_qps
        assert outcome.runs is outcome.serving.results

    def test_metrics_are_defined_over_runs_of_either_kind(self):
        # Serving runs report the per-request aggregates characterization
        # reports, and characterization runs honour the experiment SLO.
        from repro.api import MeasurementSpec

        serving = run_experiment(
            ExperimentSpec(
                agent="react",
                workload="hotpotqa",
                agent_config=AgentConfig(max_iterations=5),
                arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=4, task_pool_size=4),
            )
        )
        calls = [run.num_llm_calls for run in serving.serving.results]
        assert serving.mean_llm_calls == sum(calls) / len(calls)
        assert serving.mean_llm_calls >= 1
        assert serving.mean_total_tokens > 0
        characterization = run_experiment(
            ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                arrival=ArrivalSpec(process="single", num_requests=4),
                measurement=MeasurementSpec(slo_p95_s=1e9),
            )
        )
        assert characterization.slo_attainment == 1.0

    def test_measurement_warmup_excludes_first_completions(self):
        arrival = ArrivalSpec(process="poisson", qps=2.0, num_requests=6, task_pool_size=5)
        base = ExperimentSpec(agent="chatbot", workload="sharegpt", arrival=arrival)
        full = run_experiment(base)
        from repro.api import MeasurementSpec

        warm = run_experiment(base.with_overrides(measurement=MeasurementSpec(warmup_requests=2)))
        assert warm.num_completed == full.num_completed - 2
        assert warm.latencies == full.latencies[2:]
