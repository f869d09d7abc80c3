"""Heterogeneous hardware: catalog, HardwareSpec, cost accounting, planning.

Covers the GPU catalog registry (round-trips, aliases, unknown-name errors),
HardwareSpec validation and serialisation, per-GPU model-fit errors, the
golden pin (specs with ``hardware=None`` -- and with the explicit paper
default -- reproduce the default path bit for bit), cost/energy metric
accounting, cost-aware pool classification, and the best frontier layout
within a cost budget.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    HardwareSpec,
    MeasurementSpec,
    PoolSpec,
    StudyAxis,
    StudySpec,
    WeightedWorkload,
    resolve_metric,
    run_experiment,
    run_study,
)
from repro.analysis.study_view import FrontierView
from repro.api.codec import from_dict
from repro.llm import (
    A100_40GB,
    A100_80GB,
    ClusterSpec,
    EngineConfig,
    GPU_CATALOG,
    GPUSpec,
    H100_80GB,
    L4_24GB,
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    available_gpus,
    cluster_for_model,
    get_gpu,
    register_gpu,
)
from repro.llm.models import ModelSpec
from repro.serving.cluster import Cluster, ReplicaPool
from repro.sim import Environment


# ---------------------------------------------------------------------------
# GPU catalog registry
# ---------------------------------------------------------------------------


class TestGpuCatalog:
    def test_builtin_entries_resolve(self):
        assert get_gpu("A100-40GB") is A100_40GB
        assert get_gpu("A100-80GB") is A100_80GB
        assert get_gpu("H100-80GB") is H100_80GB
        assert get_gpu("L4") is L4_24GB

    def test_lookup_by_canonical_name_and_case_insensitive(self):
        assert get_gpu("A100-SXM4-40GB") is A100_40GB
        assert get_gpu("h100-80gb") is H100_80GB
        assert get_gpu(" L4 ") is L4_24GB

    def test_unknown_gpu_names_catalog(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            get_gpu("TPU-v5e")

    def test_available_gpus_sorted_distinct(self):
        names = available_gpus()
        assert names == tuple(sorted(names))
        assert len(names) == len(set(names))
        assert A100_40GB.name in names
        assert L4_24GB.name in names

    def test_register_round_trip_with_aliases(self):
        spec = GPUSpec(
            name="TEST-GPU-1",
            peak_flops=1e12,
            mem_bandwidth=1e11,
            mem_capacity=16e9,
            idle_power_w=10.0,
            decode_power_w=50.0,
            prefill_power_w=80.0,
            cost_per_hour=0.5,
        )
        try:
            assert register_gpu(spec, aliases=("TG1",)) is spec
            assert get_gpu("test-gpu-1") is spec
            assert get_gpu("TG1") is spec
            assert "TEST-GPU-1" in available_gpus()
            assert HardwareSpec(gpu="TG1").resolve().gpu is spec
        finally:
            del GPU_CATALOG["test-gpu-1"]
            del GPU_CATALOG["tg1"]

    def test_register_rejects_non_gpuspec(self):
        with pytest.raises(TypeError, match="GPUSpec"):
            register_gpu({"name": "not-a-spec"})

    def test_catalog_prices_present(self):
        assert A100_40GB.cost_per_hour == pytest.approx(3.67)
        assert H100_80GB.cost_per_hour > A100_80GB.cost_per_hour > A100_40GB.cost_per_hour
        assert L4_24GB.cost_per_hour < A100_40GB.cost_per_hour


# ---------------------------------------------------------------------------
# ClusterSpec: TP bounds, pricing, roofline decode
# ---------------------------------------------------------------------------


class TestClusterSpecBounds:
    def test_tensor_parallel_sixteen_rejected(self):
        with pytest.raises(ValueError, match="calibrated range 1..8"):
            ClusterSpec(gpu=A100_40GB, tensor_parallel=16)

    def test_tensor_parallel_zero_rejected(self):
        with pytest.raises(ValueError, match="calibrated range"):
            ClusterSpec(gpu=A100_40GB, tensor_parallel=0)

    def test_error_names_gpu(self):
        with pytest.raises(ValueError, match=H100_80GB.name.replace("-", "[-]")):
            ClusterSpec(gpu=H100_80GB, tensor_parallel=12)

    def test_cluster_cost_per_hour_scales_with_tp(self):
        assert ClusterSpec(gpu=A100_40GB, tensor_parallel=1).cost_per_hour == (
            pytest.approx(3.67)
        )
        assert ClusterSpec(gpu=A100_40GB, tensor_parallel=8).cost_per_hour == (
            pytest.approx(8 * 3.67)
        )

    def test_oversized_model_error_suggests_catalog(self):
        huge = ModelSpec(
            name="huge-test-model", n_params=400e9, n_layers=120,
            hidden_size=16384, n_heads=128, n_kv_heads=8,
            intermediate_size=53248, vocab_size=128256,
        )
        with pytest.raises(ValueError, match="pick a larger-memory GPU"):
            cluster_for_model(huge)

    def test_decode_seconds_per_token_orders_generations(self):
        a100 = ClusterSpec(gpu=A100_40GB).decode_seconds_per_token(LLAMA_3_1_8B)
        h100 = ClusterSpec(gpu=H100_80GB).decode_seconds_per_token(LLAMA_3_1_8B)
        l4 = ClusterSpec(gpu=L4_24GB).decode_seconds_per_token(LLAMA_3_1_8B)
        assert h100 < a100 < l4


# ---------------------------------------------------------------------------
# HardwareSpec: validation, serialisation, fit
# ---------------------------------------------------------------------------


class TestHardwareSpec:
    def test_resolve_default_is_paper_cluster(self):
        assert HardwareSpec().resolve() == cluster_for_model(LLAMA_3_1_8B)

    def test_gpuspec_instance_coerced_to_name(self):
        spec = HardwareSpec(gpu=H100_80GB)
        assert spec.gpu == H100_80GB.name
        assert spec.resolve().gpu is H100_80GB

    def test_unknown_gpu_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            HardwareSpec(gpu="B300")

    def test_tensor_parallel_bounds(self):
        with pytest.raises(ValueError, match="calibrated range"):
            HardwareSpec(tensor_parallel=16)
        with pytest.raises(ValueError, match="calibrated range"):
            HardwareSpec(tensor_parallel=0)

    def test_memory_utilization_bounds(self):
        with pytest.raises(ValueError, match="gpu_memory_utilization"):
            HardwareSpec(gpu_memory_utilization=0.0)
        with pytest.raises(ValueError, match="gpu_memory_utilization"):
            HardwareSpec(gpu_memory_utilization=1.2)

    def test_dict_round_trip(self):
        spec = HardwareSpec(gpu="H100-80GB", tensor_parallel=4,
                            gpu_memory_utilization=0.85)
        data = asdict(spec)
        assert data == {
            "gpu": H100_80GB.name,
            "tensor_parallel": 4,
            "gpu_memory_utilization": 0.85,
        }
        assert from_dict(HardwareSpec, data) == spec

    @pytest.mark.parametrize(
        "gpu,tensor_parallel",
        [("L4", 1), ("L4", 4), ("H100-80GB", 1), ("H100-80GB", 2)],
    )
    def test_70b_does_not_fit(self, gpu, tensor_parallel):
        cluster = HardwareSpec(gpu=gpu, tensor_parallel=tensor_parallel).resolve()
        with pytest.raises(ValueError, match="does not fit"):
            cluster.kv_cache_bytes(LLAMA_3_1_70B)

    def test_70b_fits_four_h100(self):
        cluster = HardwareSpec(gpu="H100-80GB", tensor_parallel=4).resolve()
        assert cluster.kv_cache_bytes(LLAMA_3_1_70B) > 0

    def test_8b_fits_one_l4(self):
        cluster = HardwareSpec(gpu="L4").resolve()
        assert cluster.kv_cache_bytes(LLAMA_3_1_8B) > 0


# ---------------------------------------------------------------------------
# Spec threading: PoolSpec / ExperimentSpec
# ---------------------------------------------------------------------------


class TestSpecThreading:
    def test_pool_hardware_shorthand_coercion(self):
        by_str = PoolSpec(name="p", model="8b", hardware="H100-80GB")
        assert by_str.hardware == HardwareSpec(gpu="H100-80GB")
        # A dict is a plain form, which only repro.api.codec decodes.
        with pytest.raises(ValueError, match="must be a HardwareSpec"):
            PoolSpec(name="p", model="8b", hardware={"gpu": "H100-80GB"})

    def test_pool_fit_error_names_pool(self):
        with pytest.raises(ValueError, match="pool 'big'.*does not fit"):
            PoolSpec(name="big", model="70b", hardware="L4")

    def test_experiment_hardware_fit_checked_against_model(self):
        with pytest.raises(ValueError, match="does not fit"):
            ExperimentSpec(model="70b", hardware=HardwareSpec(gpu="L4"))

    def test_cost_aware_requires_slo(self):
        pools = (
            PoolSpec(name="fast", model="8b", traffic_classes=("chat",)),
            PoolSpec(name="cheap", model="8b", traffic_classes=("agent",),
                     hardware="L4"),
        )
        with pytest.raises(ValueError, match="cost-aware.*SLO"):
            ExperimentSpec(pools=pools, pool_classification="cost-aware")

    def test_unknown_classification_rejected(self):
        with pytest.raises(ValueError, match="pool_classification"):
            ExperimentSpec(pool_classification="greedy")

    def test_spec_dict_round_trip_with_hardware(self):
        spec = ExperimentSpec(
            pools=(
                PoolSpec(name="chat", model="8b", traffic_classes=("chat",),
                         hardware="H100-80GB"),
                PoolSpec(name="agent", model="8b", traffic_classes=("agent",),
                         hardware=HardwareSpec(gpu="L4")),
            ),
            workloads=(
                WeightedWorkload(agent="chatbot", workload="sharegpt",
                                 weight=0.6, name="chat"),
                WeightedWorkload(agent="react", workload="hotpotqa",
                                 weight=0.4, name="agent"),
            ),
            arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=4),
            hardware=None,
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.pools[0].hardware == HardwareSpec(gpu="H100-80GB")
        assert clone.pools[1].hardware == HardwareSpec(gpu="L4")
        assert clone == spec

    def test_experiment_hardware_dict_round_trip(self):
        spec = ExperimentSpec(hardware=HardwareSpec(gpu="A100-80GB",
                                                    tensor_parallel=2))
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.hardware == spec.hardware

    def test_hardware_axis_round_trips_through_study_dict(self):
        study = StudySpec(
            base=ExperimentSpec(),
            axes=(
                StudyAxis(
                    name="hw",
                    field="hardware",
                    values=(HardwareSpec(gpu="A100-40GB"),
                            HardwareSpec(gpu="H100-80GB")),
                    labels=("a100", "h100"),
                ),
            ),
            name="hw-study",
        )
        clone = StudySpec.from_dict(study.to_dict())
        assert clone.axes[0].values == study.axes[0].values


# ---------------------------------------------------------------------------
# Golden pin: hardware=None changes nothing
# ---------------------------------------------------------------------------


def small_serving_spec(**overrides) -> ExperimentSpec:
    base = dict(
        agent="chatbot",
        workload="sharegpt",
        arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=10,
                            task_pool_size=6),
        seed=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestGoldenPin:
    def test_explicit_paper_default_is_identity(self):
        default_run = run_experiment(small_serving_spec())
        pinned_run = run_experiment(
            small_serving_spec(hardware=HardwareSpec(gpu="A100-40GB"))
        )
        assert pinned_run.latencies == default_run.latencies
        assert pinned_run.summary() == default_run.summary()

    def test_pool_level_explicit_default_is_identity(self):
        def fleet(hardware):
            return small_serving_spec(
                pools=(
                    PoolSpec(name="chat", model="8b", traffic_classes=("chat",),
                             hardware=hardware),
                ),
                workloads=(
                    WeightedWorkload(agent="chatbot", workload="sharegpt",
                                     weight=1.0, name="chat"),
                ),
            )

        unset = run_experiment(fleet(None))
        pinned = run_experiment(fleet(HardwareSpec(gpu="A100-40GB")))
        assert pinned.latencies == unset.latencies
        assert pinned.summary() == unset.summary()

    def test_non_default_hardware_changes_latencies(self):
        default_run = run_experiment(small_serving_spec())
        h100_run = run_experiment(
            small_serving_spec(hardware=HardwareSpec(gpu="H100-80GB"))
        )
        assert h100_run.latencies != default_run.latencies
        assert h100_run.mean_latency < default_run.mean_latency


# ---------------------------------------------------------------------------
# Cost and energy accounting
# ---------------------------------------------------------------------------


class TestCostAccounting:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_experiment(small_serving_spec())

    def test_cost_is_priced_replica_seconds(self, outcome):
        expected = outcome.replica_seconds / 3600.0 * A100_40GB.cost_per_hour
        assert outcome.cost_usd == pytest.approx(expected)
        assert outcome.cost_usd > 0

    def test_cost_per_1k_tokens(self, outcome):
        assert outcome.served_tokens > 0
        expected = outcome.cost_usd / (outcome.served_tokens / 1000.0)
        assert outcome.cost_per_1k_tokens == pytest.approx(expected)

    def test_energy_joules_match_watt_hours(self, outcome):
        assert outcome.energy_j == pytest.approx(outcome.energy_wh * 3600.0)

    def test_summary_reports_cost(self, outcome):
        summary = outcome.summary()
        assert summary["cost_usd"] == pytest.approx(outcome.cost_usd)
        assert summary["energy_j"] == pytest.approx(outcome.energy_j)
        assert summary["cost_per_1k_tokens"] == pytest.approx(
            outcome.cost_per_1k_tokens
        )

    def test_cost_metrics_resolve_for_studies(self, outcome):
        assert resolve_metric(outcome, "cost_usd") == pytest.approx(outcome.cost_usd)
        assert resolve_metric(outcome, "cost_per_1k_tokens") == pytest.approx(
            outcome.cost_per_1k_tokens
        )
        assert resolve_metric(outcome, "energy_j") == pytest.approx(outcome.energy_j)

    def test_pool_stats_carry_pricing(self, outcome):
        stats = outcome.serving.pool_stats["default"]
        assert stats.gpu == A100_40GB.name
        assert stats.cost_per_hour == pytest.approx(A100_40GB.cost_per_hour)
        assert stats.cost_usd == pytest.approx(outcome.cost_usd)
        assert "cost_usd" in stats.as_dict()

    def test_per_pool_hardware_prices_pools_separately(self):
        spec = small_serving_spec(
            pools=(
                PoolSpec(name="chat", model="8b", traffic_classes=("chat",),
                         hardware="H100-80GB"),
                PoolSpec(name="agent", model="8b", traffic_classes=("agent",),
                         hardware="L4"),
            ),
            workloads=(
                WeightedWorkload(agent="chatbot", workload="sharegpt",
                                 weight=0.6, name="chat"),
                WeightedWorkload(agent="react", workload="hotpotqa",
                                 weight=0.4, name="agent"),
            ),
        )
        outcome = run_experiment(spec)
        chat = outcome.serving.pool_stats["chat"]
        agent = outcome.serving.pool_stats["agent"]
        assert chat.gpu == H100_80GB.name
        assert agent.gpu == L4_24GB.name
        assert chat.cost_per_hour == pytest.approx(H100_80GB.cost_per_hour)
        assert agent.cost_per_hour == pytest.approx(L4_24GB.cost_per_hour)
        assert outcome.cost_usd == pytest.approx(chat.cost_usd + agent.cost_usd)


# ---------------------------------------------------------------------------
# Cost-aware pool classification
# ---------------------------------------------------------------------------


def make_pool(env: Environment, name: str, gpu: str) -> ReplicaPool:
    config = EngineConfig(cluster=HardwareSpec(gpu=gpu).resolve())
    return ReplicaPool(env, config, name=name, num_replicas=1)


class TestCostAwareClassification:
    def _cluster(self, class_slos=None, default_slo=None):
        env = Environment()
        cheap = make_pool(env, "cheap", "L4")
        fast = make_pool(env, "fast", "H100-80GB")
        cluster = Cluster(
            env,
            pools=[cheap, fast],
            pool_spill_threshold=None,
            classification="cost-aware",
            class_slos=class_slos,
            default_slo=default_slo,
        )
        return cluster, cheap, fast

    def _request(self, output_tokens: int):
        from repro.llm.request import LLMRequest, SamplingParams
        from repro.llm.tokenizer import Prompt, SegmentKind, SyntheticTokenizer

        prompt = Prompt()
        prompt.append(
            SyntheticTokenizer().span(SegmentKind.USER, f"s{output_tokens}", 32)
        )
        request = LLMRequest(
            prompt=prompt, sampling=SamplingParams(output_tokens=output_tokens)
        )
        request.metadata["traffic_class"] = "chat"
        return request

    def test_loose_slo_routes_to_cheapest(self):
        cluster, cheap, _fast = self._cluster(class_slos={"chat": 60.0})
        assert cluster._classify(self._request(output_tokens=64)) is cheap

    def test_tight_slo_escalates_to_fast_pool(self):
        cluster, cheap, fast = self._cluster(class_slos={"chat": 2.0})
        # 64 tokens at the L4's ~0.09 s/token roofline blows a 2 s budget;
        # the H100 holds it.
        assert cluster._classify(self._request(output_tokens=64)) is fast

    def test_impossible_slo_falls_back_to_fastest(self):
        cluster, _cheap, fast = self._cluster(class_slos={"chat": 1e-6})
        assert cluster._classify(self._request(output_tokens=64)) is fast

    def test_no_slo_falls_back_to_static(self):
        cluster, cheap, _fast = self._cluster(class_slos={"batch": 60.0})
        # "chat" has no SLO and no pool claims the class: static default pool.
        assert cluster._classify(self._request(output_tokens=64)) is cheap

    def test_default_slo_covers_unlabelled_classes(self):
        cluster, _cheap, fast = self._cluster(default_slo=2.0)
        assert cluster._classify(self._request(output_tokens=64)) is fast

    def test_unknown_classification_mode_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="unknown pool classification"):
            Cluster(env, pools=[make_pool(env, "a", "L4")], classification="greedy")

    def test_end_to_end_cost_aware_run(self):
        spec = small_serving_spec(
            pools=(
                PoolSpec(name="fast", model="8b", hardware="H100-80GB"),
                PoolSpec(name="cheap", model="8b", hardware="L4"),
            ),
            workloads=(
                WeightedWorkload(agent="chatbot", workload="sharegpt",
                                 weight=1.0, name="chat"),
            ),
            pool_classification="cost-aware",
            measurement=MeasurementSpec(class_slos=(("chat", 30.0),)),
        )
        outcome = run_experiment(spec)
        assert outcome.num_completed == 10
        served = {
            name: stats.completed_llm_requests
            for name, stats in outcome.serving.pool_stats.items()
        }
        # A loose SLO keeps the cheap pool doing the work.
        assert served["cheap"] > 0


# ---------------------------------------------------------------------------
# The best frontier layout within a cost budget
# ---------------------------------------------------------------------------


class HardwareSweep(FrontierView):
    """$/1k tokens against p95 latency (both minimised) over a GPU sweep."""

    METRICS = (("usd_per_1k_tok", "cost_per_1k_tokens"), ("p95_s", "p95_latency"))
    COST, QUALITY = "usd_per_1k_tok", "p95_s"


class TestBestWithin:
    @pytest.fixture(scope="class")
    def view(self):
        base = small_serving_spec()
        result = run_study(
            StudySpec(
                base=base,
                axes=(
                    StudyAxis(
                        name="hw",
                        field="hardware",
                        values=(
                            HardwareSpec(gpu="A100-40GB"),
                            HardwareSpec(gpu="H100-80GB"),
                            HardwareSpec(gpu="L4"),
                        ),
                        labels=("a100", "h100", "l4"),
                    ),
                ),
                name="hw-sweep",
            )
        )
        return HardwareSweep(result=result, title="hw-sweep")

    def test_frontier_sorted_by_cost(self, view):
        costs = [entry.cost for entry in view.frontier()]
        assert costs == sorted(costs)
        assert costs  # non-empty

    def test_budget_pick_fits_budget(self, view):
        budget = max(entry.cost for entry in view.frontier())
        best = view.best_within(budget)
        assert best.cost <= budget
        # Best quality among affordable points (minimised metric).
        assert best.quality == min(entry.quality for entry in view.frontier())

    def test_blown_budget_falls_back_to_cheapest(self, view):
        cheapest = min(entry.cost for entry in view.frontier())
        best = view.best_within(cheapest / 10.0)
        assert best.cost == pytest.approx(cheapest)

    def test_empty_slice_rejected(self, view):
        with pytest.raises(ValueError, match="no study points match"):
            view.best_within(float("inf"), hw="tpu")

    def test_pick_carries_its_layout_and_labels(self, view):
        best = view.best_within(float("inf"))
        assert {pool.name: pool.replicas for pool in best.point.spec.fleet} == {
            "default": 1
        }
        assert best.point.labels.get("hw") in ("a100", "h100", "l4")
