"""Tests for the elastic heterogeneous fleet: pool specs, mixtures, autoscaling.

Covers the fleet vocabulary of the unified API (PoolSpec / WeightedWorkload /
AutoscalerSpec), the mixed-traffic acceptance scenario (two pools + weighted
chatbot/agent mixture + autoscaler -> per-pool and per-class metrics with
replica-seconds), the noisy decode-length predictor, and the engine's cached
window aggregates.  Legacy single-pool bit-for-bit identity is pinned
separately in ``tests/test_api_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    PoolSpec,
    WeightedWorkload,
    run_experiment,
)
from repro.llm import (
    DecodeLengthPredictor,
    EngineConfig,
    LLMEngine,
    Prompt,
    SamplingParams,
    Scheduler,
    SchedulerConfig,
)
from repro.llm.request import LLMRequest
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer
from repro.sim import Environment

TOKENIZER = SyntheticTokenizer()


def make_request(
    prompt_tokens: int = 64, output_tokens: int = 16, stream: str = "req"
) -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, prompt_tokens))
    return LLMRequest(prompt=prompt, sampling=SamplingParams(output_tokens=output_tokens))


def mixed_fleet_spec(**overrides) -> ExperimentSpec:
    """Two pools + weighted chatbot/agent mixture + autoscaler."""
    base = dict(
        pools=(
            PoolSpec(
                name="chat",
                model="8b",
                replicas=1,
                router="least-loaded",
                traffic_classes=("chat",),
            ),
            PoolSpec(
                name="agent",
                model="8b",
                replicas=2,
                scheduler="sjf-by-predicted-decode",
                router="prefix-affinity",
                traffic_classes=("agent",),
            ),
        ),
        workloads=(
            WeightedWorkload(agent="chatbot", workload="sharegpt", weight=0.6, name="chat"),
            WeightedWorkload(agent="react", workload="hotpotqa", weight=0.4, name="agent"),
        ),
        autoscaler=AutoscalerSpec(
            pool="chat",
            min_replicas=1,
            max_replicas=3,
            check_interval_s=1.0,
            warmup_s=2.0,
            scale_up_pending_per_replica=1.5,
            scale_down_pending_per_replica=0.25,
        ),
        arrival=ArrivalSpec(process="poisson", qps=3.0, num_requests=16, task_pool_size=8),
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation and serialisation
# ---------------------------------------------------------------------------


class TestFleetSpecs:
    def test_pool_names_must_be_unique(self):
        with pytest.raises(ValueError, match="duplicate pool names"):
            ExperimentSpec(pools=(PoolSpec(name="p"), PoolSpec(name="p")))

    def test_pool_validates_model_scheduler_router(self):
        with pytest.raises(ValueError, match="unknown model"):
            PoolSpec(name="p", model="13b")
        with pytest.raises(ValueError, match="scheduler policy"):
            PoolSpec(name="p", scheduler="edf")
        with pytest.raises(ValueError, match="router policy"):
            PoolSpec(name="p", router="random")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("model", "70b"),
            ("replicas", 2),
            ("scheduler", "priority"),
            ("router", "least-loaded"),
        ],
    )
    def test_flat_fleet_field_beside_pools_rejected(self, field, value):
        # Declared pools carry their own fleet settings; a flat one beside
        # them would be silently ignored.
        with pytest.raises(ValueError, match=rf"flat fleet fields \['{field}'\]"):
            mixed_fleet_spec(**{field: value})

    def test_flat_traffic_fields_beside_workloads_allowed(self):
        # agent/workload beside a mixture name the random-stream namespace.
        spec = mixed_fleet_spec(agent="chatbot", workload="sharegpt")
        assert spec.agent == "chatbot"

    def test_mixture_requires_open_loop_arrival(self):
        with pytest.raises(ValueError, match="open-loop"):
            ExperimentSpec(
                workloads=(WeightedWorkload(agent="chatbot", workload="sharegpt"),),
                arrival=ArrivalSpec(process="single", num_requests=4),
            )

    def test_mixture_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="weight"):
            WeightedWorkload(agent="chatbot", workload="sharegpt", weight=0.0)

    def test_pool_traffic_classes_must_name_mixture_labels(self):
        with pytest.raises(ValueError, match="unknown traffic class"):
            mixed_fleet_spec(
                pools=(
                    PoolSpec(name="chat", traffic_classes=("chit-chat",)),
                    PoolSpec(name="agent", traffic_classes=("agent",)),
                )
            )

    def test_autoscaler_requires_serving_arrival_and_known_pool(self):
        with pytest.raises(ValueError, match="serving arrival"):
            ExperimentSpec(
                autoscaler=AutoscalerSpec(),
                arrival=ArrivalSpec(process="single", num_requests=2),
            )
        with pytest.raises(ValueError, match="unknown pool"):
            mixed_fleet_spec(autoscaler=AutoscalerSpec(pool="gpu-heavy"))

    def test_autoscaler_threshold_ordering(self):
        with pytest.raises(ValueError, match="scale-down threshold"):
            AutoscalerSpec(
                scale_up_pending_per_replica=1.0, scale_down_pending_per_replica=2.0
            )

    def test_weighted_workload_label_defaults_to_workload(self):
        mix = WeightedWorkload(agent="chatbot", workload="sharegpt")
        assert mix.name == "sharegpt"

    def test_fleet_spec_round_trips_through_dict(self):
        spec = mixed_fleet_spec(predictor_error=0.25)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# Acceptance: mixed traffic on a two-pool autoscaled fleet
# ---------------------------------------------------------------------------


class TestMixedFleetServing:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_experiment(mixed_fleet_spec())

    def test_all_requests_complete(self, outcome):
        assert outcome.num_completed == 16

    def test_per_pool_metrics_reported(self, outcome):
        pools = outcome.pool_stats
        assert set(pools) == {"chat", "agent"}
        for stats in pools.values():
            assert stats.completed_llm_requests > 0
            assert stats.llm_p95_latency_s > 0
            assert stats.llm_throughput_qps > 0
            assert stats.energy_wh > 0
            assert stats.replica_seconds > 0

    def test_per_class_metrics_reported(self, outcome):
        classes = outcome.classes
        assert set(classes) == {"chat", "agent"}
        total = sum(stats.num_completed for stats in classes.values())
        assert total == outcome.num_completed
        for stats in classes.values():
            assert stats.p95_latency >= stats.mean_latency * 0.5
            assert stats.throughput_qps > 0

    def test_traffic_lands_in_its_pool(self, outcome):
        pools = outcome.pool_stats
        # Agent traffic issues several LLM calls per request; the agent pool
        # must therefore see more engine requests than the chat pool.
        assert pools["agent"].completed_llm_requests > pools["chat"].completed_llm_requests

    def test_replica_seconds_accounted(self, outcome):
        serving = outcome.serving
        assert outcome.replica_seconds == pytest.approx(
            sum(stats.replica_seconds for stats in serving.pool_stats.values())
        )
        # At least the three initial replicas for the whole run...
        assert outcome.replica_seconds >= 3 * serving.duration * 0.99
        # ...and no more than the maximum fleet for the whole run.
        assert outcome.replica_seconds <= 6 * serving.duration * 1.01

    def test_autoscaler_scaled_the_chat_pool(self, outcome):
        events = outcome.serving.scaling_events
        assert any(event.action == "grow" for event in events)
        assert all(event.pool == "chat" for event in events)
        assert outcome.pool_stats["chat"].num_replicas > 1

    def test_summary_includes_replica_seconds(self, outcome):
        assert outcome.summary()["replica_seconds"] == outcome.replica_seconds

    def test_mixture_is_deterministic_at_fixed_seed(self, outcome):
        again = run_experiment(mixed_fleet_spec())
        assert again.latencies == outcome.latencies
        assert again.serving.routed_counts == outcome.serving.routed_counts
        assert [e.time for e in again.serving.scaling_events] == [
            e.time for e in outcome.serving.scaling_events
        ]


# ---------------------------------------------------------------------------
# Noisy decode-length predictor
# ---------------------------------------------------------------------------


class TestDecodeLengthPredictor:
    def test_exact_by_default(self):
        predictor = DecodeLengthPredictor()
        request = make_request(output_tokens=40)
        assert predictor.predict(request) == 40.0
        assert "predicted_decode" not in request.metadata

    def test_noisy_prediction_is_deterministic_and_cached(self):
        request = make_request(output_tokens=40, stream="noisy")
        first = DecodeLengthPredictor(0.3, seed=5).predict(request)
        second = DecodeLengthPredictor(0.3, seed=5).predict(request)
        assert first == second
        assert request.metadata["predicted_decode"] == first
        assert first != 40.0

    def test_error_scales_dispersion(self):
        exact = 100
        requests = [make_request(output_tokens=exact, stream=f"s{i}") for i in range(64)]
        small = DecodeLengthPredictor(0.05, seed=1)
        errors = [abs(small.predict(r) - exact) / exact for r in requests]
        assert 0 < sum(errors) / len(errors) < 0.15

    def test_sjf_policy_uses_configured_predictor(self):
        from repro.llm.prefix_cache import PrefixCache
        from repro.llm import KVCacheConfig
        from repro.llm.models import LLAMA_3_1_8B

        kv = KVCacheConfig(
            block_size=16,
            num_blocks=64,
            bytes_per_block=16 * LLAMA_3_1_8B.kv_bytes_per_token,
            enable_prefix_caching=True,
        )
        noisy = Scheduler(
            SchedulerConfig(
                policy="sjf-by-predicted-decode", predictor_error=0.4, predictor_seed=3
            ),
            PrefixCache(kv),
        )
        assert noisy.policy.predictor.relative_error == 0.4
        exact = Scheduler(
            SchedulerConfig(policy="sjf-by-predicted-decode"), PrefixCache(kv)
        )
        assert exact.policy.predictor.is_exact

    def test_noisy_sjf_experiment_runs_end_to_end(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            scheduler="sjf-by-predicted-decode",
            predictor_error=0.3,
            arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=5, task_pool_size=4),
        )
        outcome = run_experiment(spec)
        assert outcome.num_completed == 5


# ---------------------------------------------------------------------------
# Engine window-aggregate caching
# ---------------------------------------------------------------------------


class TestEngineWindowAggregates:
    def _drive(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig())
        events = [
            engine.submit(make_request(96, output_tokens=24, stream=f"w{i}"))
            for i in range(4)
        ]
        env.run(env.all_of(events))
        return engine

    def _brute_force(self, engine, start, end):
        breakdown = {"prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0}
        total_time = weighted = maximum = 0.0
        for record in engine.step_records:
            record_end = record.start + record.duration
            overlap = min(record_end, end) - max(record.start, start)
            if overlap <= 0:
                continue
            breakdown[record.kind] += overlap
            total_time += overlap
            weighted += record.kv_bytes_active * overlap
            maximum = max(maximum, record.kv_bytes_active)
        average = weighted / total_time if total_time > 0 else 0.0
        return breakdown, {"average_bytes": average, "max_bytes": maximum}

    def test_windowed_queries_match_brute_force(self):
        engine = self._drive()
        assert len(engine.step_records) > 4
        horizon = engine.env.now
        windows = [
            (0.0, float("inf")),
            (0.0, horizon),
            (horizon * 0.25, horizon * 0.75),
            (horizon * 0.5, float("inf")),
            (horizon * 2, float("inf")),  # empty window
        ]
        for start, end in windows:
            expected_breakdown, expected_kv = self._brute_force(engine, start, end)
            got_end = None if end == float("inf") else end
            assert engine.runtime_breakdown(start, got_end) == expected_breakdown
            assert engine.kv_memory_stats(start, got_end) == expected_kv


class TestFleetRegressions:
    def test_noisy_sjf_is_reproducible_within_one_process(self):
        # Predictions must derive from request content, not the process-global
        # request counter: two identical experiments in one process must agree.
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            scheduler="sjf-by-predicted-decode",
            predictor_error=0.5,
            arrival=ArrivalSpec(
                process="poisson", qps=20.0, num_requests=30, task_pool_size=8
            ),
            seed=3,
        )
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.latencies == second.latencies

    def test_drain_detects_deadlocked_worker_despite_autoscaler_heartbeat(self):
        # The autoscaler's periodic timer keeps the event queue non-empty
        # forever; a deadlocked worker must still end the drain loop.
        from repro.api.builder import SystemBuilder
        from repro.api.runners import ServingDriver, _build_plan

        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            autoscaler=AutoscalerSpec(check_interval_s=1.0, max_replicas=2),
            arrival=ArrivalSpec(
                process="poisson", qps=4.0, num_requests=3, task_pool_size=3
            ),
        )
        system = SystemBuilder(spec).build()

        class StuckAgent:
            def run_process(self, task):
                return system.env.event()  # never fires

        system.create_agent = lambda label, seed_stream: StuckAgent()
        driver = ServingDriver(system)
        result = driver.serve(_build_plan(system))
        assert result.results == []

    def test_mixture_spec_skips_legacy_workload(self):
        from repro.api.builder import SystemBuilder

        system = SystemBuilder(mixed_fleet_spec()).build()
        # No unlabelled class: the flat workload is never instantiated.
        assert None not in system.traffic
        assert set(system.traffic) == {"chat", "agent"}
