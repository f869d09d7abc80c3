"""Tests for the replica cluster, routing policies, and scheduler policies."""

from __future__ import annotations

import pytest

from repro.api import ArrivalSpec, ExperimentSpec, run_experiment
from repro.llm import (
    EngineConfig,
    Prompt,
    SamplingParams,
    available_scheduler_policies,
    create_scheduler_policy,
)
from repro.llm.request import LLMRequest
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer
from repro.serving import (
    Cluster,
    ReplicaPool,
    available_router_policies,
    create_router_policy,
)
from repro.sim import Environment

TOKENIZER = SyntheticTokenizer()


def make_request(
    prompt_tokens: int = 64,
    output_tokens: int = 16,
    stream: str = "req",
    priority: float = 0.0,
) -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, prompt_tokens))
    return LLMRequest(
        prompt=prompt,
        sampling=SamplingParams(output_tokens=output_tokens),
        metadata={"priority": priority} if priority else None,
    )


def first_admitted(policy, waiting) -> int:
    """Position in ``waiting`` of the request ``policy`` admits first."""
    for request in waiting:
        policy.push(request)
    return waiting.index(policy.peek())


# ---------------------------------------------------------------------------
# Scheduler policies
# ---------------------------------------------------------------------------


class TestSchedulerPolicies:
    def test_registry_contents(self):
        assert available_scheduler_policies() == [
            "fcfs",
            "priority",
            "sjf-by-predicted-decode",
            "vtc",
        ]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            create_scheduler_policy("shortest-prompt")

    def test_mixed_case_registration_is_reachable(self):
        from repro.llm.scheduler import (
            SCHEDULER_POLICIES,
            FCFSPolicy,
            register_scheduler_policy,
        )

        class EDFPolicy(FCFSPolicy):
            name = "EDF-Test"

        register_scheduler_policy(EDFPolicy)
        try:
            assert isinstance(create_scheduler_policy("edf-test"), EDFPolicy)
            assert isinstance(create_scheduler_policy("EDF-Test"), EDFPolicy)
        finally:
            SCHEDULER_POLICIES.pop("edf-test", None)

    def test_fcfs_always_picks_queue_head(self):
        policy = create_scheduler_policy("fcfs")
        waiting = [make_request(output_tokens=n, stream=f"s{n}") for n in (30, 10, 20)]
        assert first_admitted(policy, waiting) == 0

    def test_sjf_picks_shortest_predicted_decode(self):
        policy = create_scheduler_policy("sjf-by-predicted-decode")
        waiting = [make_request(output_tokens=n, stream=f"s{n}") for n in (30, 10, 20)]
        assert first_admitted(policy, waiting) == 1

    def test_sjf_breaks_ties_fcfs(self):
        policy = create_scheduler_policy("sjf-by-predicted-decode")
        waiting = [make_request(output_tokens=8, stream=f"s{n}") for n in range(3)]
        assert first_admitted(policy, waiting) == 0

    def test_priority_prefers_highest_priority(self):
        policy = create_scheduler_policy("priority")
        waiting = [
            make_request(stream="low", priority=0.0),
            make_request(stream="high", priority=5.0),
            make_request(stream="mid", priority=2.0),
        ]
        assert first_admitted(policy, waiting) == 1

    def test_priority_ties_resolve_fcfs(self):
        policy = create_scheduler_policy("priority")
        waiting = [make_request(stream=f"s{n}", priority=1.0) for n in range(3)]
        assert first_admitted(policy, waiting) == 0

    def test_all_policies_run_end_to_end(self):
        for policy in available_scheduler_policies():
            spec = ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                scheduler=policy,
                arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=4, task_pool_size=4),
            )
            outcome = run_experiment(spec)
            assert outcome.num_completed == 4, policy


# ---------------------------------------------------------------------------
# Router policies
# ---------------------------------------------------------------------------


class TestRouterPolicies:
    def _cluster(self, num_replicas: int = 4, router: str = "round-robin") -> Cluster:
        env = Environment()
        pool = ReplicaPool(env, EngineConfig(), num_replicas=num_replicas, router=router)
        return Cluster(env, pools=[pool])

    def test_registry_contents(self):
        assert available_router_policies() == [
            "least-loaded",
            "prefix-affinity",
            "round-robin",
            "session-affinity",
        ]

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router policy"):
            create_router_policy("weighted-random")

    def test_round_robin_cycles(self):
        cluster = self._cluster(router="round-robin")
        router = cluster.default_pool.router
        picks = [router.select(make_request(stream=f"s{n}"), cluster.replicas) for n in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_least_loaded_prefers_emptiest_replica(self):
        cluster = self._cluster(router="least-loaded")
        # Load replicas 0-2 by submitting through them directly.
        for index in (0, 0, 1, 2):
            cluster.replicas[index].submit(make_request(stream=f"load{index}"))
        router = cluster.default_pool.router
        assert router.select(make_request(stream="probe"), cluster.replicas) == 3

    def test_prefix_affinity_is_deterministic_and_sticky(self):
        cluster = self._cluster(router="prefix-affinity")
        router = cluster.default_pool.router
        first = router.select(make_request(stream="same"), cluster.replicas)
        again = router.select(make_request(stream="same"), cluster.replicas)
        assert first == again

    def test_prefix_affinity_spills_under_load(self):
        cluster = self._cluster(router="prefix-affinity")
        router = cluster.default_pool.router
        request = make_request(stream="hot")
        preferred = router.select(request, cluster.replicas)
        # Saturate the preferred replica beyond the spill threshold.
        for n in range(router.spill_threshold + 1):
            cluster.replicas[preferred].submit(make_request(stream=f"fill{n}"))
        spilled = router.select(make_request(stream="hot"), cluster.replicas)
        assert spilled != preferred

    def test_single_replica_routes_everything_to_it(self):
        for router in available_router_policies():
            cluster = self._cluster(num_replicas=1, router=router)
            for n in range(5):
                cluster.submit(make_request(stream=f"r{n}"))
            assert cluster.routed_counts == [5]

    def test_routing_deterministic_under_fixed_seed(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            replicas=3,
            router="round-robin",
            arrival=ArrivalSpec(process="poisson", qps=3.0, num_requests=9, task_pool_size=6),
            seed=11,
        )
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.serving.routed_counts == second.serving.routed_counts
        assert sum(first.serving.routed_counts) >= 9
        assert first.latencies == second.latencies


# ---------------------------------------------------------------------------
# Cluster metric aggregation
# ---------------------------------------------------------------------------


class TestClusterAggregation:
    def test_replica_count_validation(self):
        with pytest.raises(ValueError, match="num_replicas"):
            ReplicaPool(Environment(), EngineConfig(), num_replicas=0)
        with pytest.raises(ValueError, match="at least one ReplicaPool"):
            Cluster(Environment(), pools=[])

    def test_multi_replica_serving_reports_aggregates(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            replicas=2,
            arrival=ArrivalSpec(process="poisson", qps=4.0, num_requests=8, task_pool_size=6),
        )
        result = run_experiment(spec).serving
        assert result.num_replicas == 2
        assert len(result.routed_counts) == 2
        assert sum(result.routed_counts) >= 8
        assert result.energy_wh > 0
        assert result.kv_max_bytes > 0
        assert 0.0 <= result.prefix_cache_hit_rate <= 1.0


# ---------------------------------------------------------------------------
# Replica pools: classification, cross-pool spill, KV pressure
# ---------------------------------------------------------------------------


def tiny_kv_engine_config(num_blocks: int = 9) -> EngineConfig:
    """An 8B engine whose KV cache holds only ``num_blocks`` blocks."""
    from repro.llm.hardware import ClusterSpec
    from repro.llm.models import LLAMA_3_1_8B

    model = LLAMA_3_1_8B
    target_bytes = model.kv_bytes_per_token * 16 * num_blocks
    utilization = (model.weight_bytes + 2.0e9 + target_bytes) / 40e9
    return EngineConfig(
        model=model,
        cluster=ClusterSpec(gpu_memory_utilization=utilization),
    )


class TestReplicaPools:
    def _two_pool_cluster(self, spill_threshold=2.0, **pool_kwargs):
        env = Environment()
        pool_a = ReplicaPool(
            env, EngineConfig(), name="a", num_replicas=2,
            router="prefix-affinity", traffic_classes=("a",), **pool_kwargs,
        )
        pool_b = ReplicaPool(
            env, EngineConfig(), name="b", num_replicas=2,
            router="least-loaded", traffic_classes=("b",),
        )
        cluster = Cluster(env, pools=[pool_a, pool_b], pool_spill_threshold=spill_threshold)
        return env, cluster, pool_a, pool_b

    def test_traffic_class_routes_to_claiming_pool(self):
        _, cluster, pool_a, pool_b = self._two_pool_cluster()
        cluster.submit(make_request(stream="x1", priority=0.0))  # untagged -> default
        request = make_request(stream="x2")
        request.metadata["traffic_class"] = "b"
        cluster.submit(request)
        assert request.metadata["pool"] == "b"
        assert sum(pool_b.routed_counts) == 1
        assert sum(pool_a.routed_counts) == 1  # the untagged default

    def test_predicted_decode_length_classification(self):
        env = Environment()
        short = ReplicaPool(env, EngineConfig(), name="short", max_predicted_decode=32)
        long_pool = ReplicaPool(env, EngineConfig(), name="long")
        cluster = Cluster(env, pools=[short, long_pool], pool_spill_threshold=None)
        small = make_request(stream="s", output_tokens=8)
        big = make_request(stream="l", output_tokens=500)
        cluster.submit(small)
        cluster.submit(big)
        assert small.metadata["pool"] == "short"
        assert big.metadata["pool"] == "long"

    def test_prefix_affinity_sticky_within_pool_then_spills_across_pools(self):
        _, cluster, pool_a, pool_b = self._two_pool_cluster(spill_threshold=2.0)

        def tagged(stream):
            request = make_request(stream=stream)
            request.metadata["traffic_class"] = "a"
            return request

        # Same-prefix requests stick to one replica of the claiming pool.
        first, second = tagged("hot"), tagged("hot")
        cluster.submit(first)
        cluster.submit(second)
        assert first.metadata["pool"] == second.metadata["pool"] == "a"
        assert first.metadata["replica"] == second.metadata["replica"]
        # Keep loading the claiming pool: once it is spill_threshold ahead of
        # pool b (per active replica), overflow crosses pools, and the system
        # settles into balance instead of drowning the preferred pool.
        requests = [tagged(f"fill{index}") for index in range(10)]
        for request in requests:
            cluster.submit(request)
        spilled = [r for r in requests if r.metadata.get("spilled_from") == "a"]
        assert spilled, "expected cross-pool spill under overload"
        assert all(r.metadata["pool"] == "b" for r in spilled)
        assert pool_a.spilled_out == len(spilled)
        assert pool_b.spilled_in == len(spilled)
        # Spill rebalances: the pools end within the threshold of each other.
        assert (
            pool_a.pending_per_active_replica - pool_b.pending_per_active_replica
            <= cluster.pool_spill_threshold + 1
        )

    def test_pinned_pool_never_receives_spill(self):
        env = Environment()
        pool_a = ReplicaPool(env, EngineConfig(), name="a", traffic_classes=("a",))
        pool_b = ReplicaPool(
            env, EngineConfig(), name="b", traffic_classes=("b",), accepts_spill=False
        )
        cluster = Cluster(env, pools=[pool_a, pool_b], pool_spill_threshold=1.0)
        for index in range(6):
            request = make_request(stream=f"r{index}")
            request.metadata["traffic_class"] = "a"
            cluster.submit(request)
            assert request.metadata["pool"] == "a"
        assert pool_b.spilled_in == 0

    def test_preemption_under_kv_pressure_in_each_pool(self):
        env = Environment()
        config = tiny_kv_engine_config(num_blocks=9)
        pool_a = ReplicaPool(env, config, name="a", traffic_classes=("a",))
        pool_b = ReplicaPool(env, config, name="b", traffic_classes=("b",))
        cluster = Cluster(env, pools=[pool_a, pool_b], pool_spill_threshold=None)
        events = []
        for label in ("a", "b"):
            for index in range(2):
                request = make_request(
                    prompt_tokens=64, output_tokens=64, stream=f"{label}{index}"
                )
                request.metadata["traffic_class"] = label
                events.append(cluster.submit(request))
        env.run(env.all_of(events))
        # Both pools hit KV pressure independently and recovered.
        assert pool_a.preemption_count >= 1
        assert pool_b.preemption_count >= 1
        assert cluster.preemption_count == (
            pool_a.preemption_count + pool_b.preemption_count
        )
        assert len(cluster.completed_requests) == 4

    def test_replica_seconds_accounting(self):
        env = Environment()
        pool = ReplicaPool(env, EngineConfig(), name="p", num_replicas=2)
        assert pool.replica_seconds_until(10.0) == pytest.approx(20.0)
        pool.shrink()
        assert pool.num_active == 1
        # The last active replica can never be drained.
        assert pool.shrink() is None
        assert pool.num_active == 1
        # A drained replica stops accruing; growing reuses it with warm-up.
        assert pool.replica_seconds_until(10.0) == pytest.approx(10.0)
        index = pool.grow(warmup_s=5.0)
        assert pool.num_provisioned == 2
        assert pool._active[index] is False  # still warming up
        assert pool.replica_seconds_until(10.0) == pytest.approx(20.0)
        assert [event.action for event in pool.scaling_events] == ["shrink", "grow"]
