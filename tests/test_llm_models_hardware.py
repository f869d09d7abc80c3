"""Tests for model specs, hardware specs, and the roofline performance model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import (
    A100_40GB,
    ClusterSpec,
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    PerformanceModel,
    cluster_for_model,
    get_model,
)


class TestModelSpec:
    def test_get_model_by_short_name(self):
        assert get_model("8b") is LLAMA_3_1_8B
        assert get_model("70b") is LLAMA_3_1_70B

    def test_get_model_by_full_name(self):
        assert get_model("llama-3.1-8b-instruct") is LLAMA_3_1_8B

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model("llama-13b")

    def test_weight_bytes_matches_params_and_dtype(self):
        assert LLAMA_3_1_8B.weight_bytes == pytest.approx(8.03e9 * 2)
        assert LLAMA_3_1_70B.weight_bytes == pytest.approx(70.6e9 * 2)

    def test_head_dim(self):
        assert LLAMA_3_1_8B.head_dim == 128
        assert LLAMA_3_1_70B.head_dim == 128

    def test_kv_bytes_per_token_8b(self):
        # 2 (K,V) * 32 layers * 8 kv heads * 128 dim * 2 bytes = 131072 B/token.
        assert LLAMA_3_1_8B.kv_bytes_per_token == pytest.approx(131072)

    def test_kv_bytes_per_token_70b_larger(self):
        assert LLAMA_3_1_70B.kv_bytes_per_token > LLAMA_3_1_8B.kv_bytes_per_token

    def test_flops_per_token_grows_with_context(self):
        short = LLAMA_3_1_8B.flops_per_token(0)
        long = LLAMA_3_1_8B.flops_per_token(4000)
        assert long > short
        assert short >= 2 * LLAMA_3_1_8B.n_params

    def test_prefill_flops_zero_tokens(self):
        assert LLAMA_3_1_8B.prefill_flops(0) == 0.0

    def test_prefill_flops_scale_superlinearly_with_length(self):
        flops_1k = LLAMA_3_1_8B.prefill_flops(1000)
        flops_2k = LLAMA_3_1_8B.prefill_flops(2000)
        assert flops_2k > 2 * flops_1k


class TestClusterSpec:
    def test_default_cluster_for_8b_is_single_gpu(self):
        cluster = cluster_for_model(LLAMA_3_1_8B)
        assert cluster.tensor_parallel == 1

    def test_default_cluster_for_70b_is_eight_gpus(self):
        cluster = cluster_for_model(LLAMA_3_1_70B)
        assert cluster.tensor_parallel == 8

    def test_70b_does_not_fit_one_gpu(self):
        cluster = ClusterSpec(gpu=A100_40GB, tensor_parallel=1)
        with pytest.raises(ValueError):
            cluster.kv_cache_bytes(LLAMA_3_1_70B)

    def test_kv_cache_bytes_positive_for_8b(self):
        cluster = cluster_for_model(LLAMA_3_1_8B)
        kv_bytes = cluster.kv_cache_bytes(LLAMA_3_1_8B)
        assert 0 < kv_bytes < A100_40GB.mem_capacity

    def test_power_states_ordering(self):
        cluster = cluster_for_model(LLAMA_3_1_8B)
        assert cluster.power_w("idle") < cluster.power_w("decode") < cluster.power_w("prefill")

    def test_unknown_power_state_raises(self):
        with pytest.raises(ValueError):
            cluster_for_model(LLAMA_3_1_8B).power_w("boost")

    def test_tensor_parallel_power_scales_with_gpus_but_sublinearly_per_gpu(self):
        single = ClusterSpec(gpu=A100_40GB, tensor_parallel=1)
        octo = ClusterSpec(gpu=A100_40GB, tensor_parallel=8)
        assert octo.power_w("decode") > single.power_w("decode")
        assert octo.power_w("decode") / 8 < single.power_w("decode")

    def test_step_overhead_includes_tp_communication(self):
        single = ClusterSpec(gpu=A100_40GB, tensor_parallel=1)
        octo = ClusterSpec(gpu=A100_40GB, tensor_parallel=8)
        assert octo.step_overhead > single.step_overhead


class TestPerformanceModel:
    @pytest.fixture
    def perf_8b(self) -> PerformanceModel:
        return PerformanceModel(model=LLAMA_3_1_8B, cluster=cluster_for_model(LLAMA_3_1_8B))

    @pytest.fixture
    def perf_70b(self) -> PerformanceModel:
        return PerformanceModel(model=LLAMA_3_1_70B, cluster=cluster_for_model(LLAMA_3_1_70B))

    def test_prefill_time_grows_with_tokens(self, perf_8b):
        assert perf_8b.prefill_time(4000) > perf_8b.prefill_time(1000) > 0

    def test_prefill_time_drops_with_cached_tokens(self, perf_8b):
        full = perf_8b.prefill_time(3000, cached_tokens=0)
        cached = perf_8b.prefill_time(500, cached_tokens=2500)
        assert cached < full

    def test_prefill_of_zero_tokens_is_only_overhead(self, perf_8b):
        assert perf_8b.prefill_time(0) == pytest.approx(perf_8b.cluster.step_overhead)

    def test_decode_step_empty_batch_is_zero(self, perf_8b):
        assert perf_8b.decode_step_time([]) == 0.0

    def test_decode_step_time_single_sequence_near_weight_read_time(self, perf_8b):
        step = perf_8b.decode_step_time([1000])
        weight_read = LLAMA_3_1_8B.weight_bytes / (
            perf_8b.cluster.total_mem_bandwidth * perf_8b.cluster.gpu.mbu_decode
        )
        assert step == pytest.approx(weight_read + perf_8b.cluster.step_overhead, rel=0.2)

    def test_decode_step_grows_slowly_with_batch(self, perf_8b):
        single = perf_8b.decode_step_time([1000])
        batch = perf_8b.decode_step_time([1000] * 16)
        assert batch > single
        assert batch < 2.5 * single  # continuous batching amortises the weight read

    def test_decode_step_grows_with_context(self, perf_8b):
        assert perf_8b.decode_step_time([8000]) > perf_8b.decode_step_time([100])

    def test_70b_decode_slower_than_8b(self, perf_8b, perf_70b):
        assert perf_70b.decode_step_time([500]) > perf_8b.decode_step_time([500])

    def test_generation_time_matches_sharegpt_scale(self, perf_8b):
        # ~250 output tokens on one A100 should land in the couple-of-seconds
        # range the paper reports for single-turn inference (4.23 s).
        # Prefill, then one decode step per token after the first.
        latency = perf_8b.prefill_time(300) + sum(perf_8b.decode_run_step_times([300], 249))
        assert 2.0 < latency < 8.0

    @given(tokens=st.integers(1, 8000), cached=st.integers(0, 4000))
    @settings(max_examples=40, deadline=None)
    def test_prefill_time_is_positive_and_monotone_in_new_tokens(self, tokens, cached):
        perf = PerformanceModel(model=LLAMA_3_1_8B, cluster=cluster_for_model(LLAMA_3_1_8B))
        time_now = perf.prefill_time(tokens, cached)
        assert time_now > 0
        assert perf.prefill_time(tokens + 500, cached) >= time_now
