"""Bit-for-bit equivalence of exact decode fast-forwarding.

The engine's one decode path collapses runs of per-token decode steps into
one simulated event and replays the per-token bookkeeping.  These tests run
identical scenarios as they are and under the test-only per-token seam
(``tests/per_token.py``, every run planned as one step) and require
*byte-identical* outcomes -- every step record, every per-request timing
float, every energy and KV statistic -- under idle decode, mid-decode
arrivals, and KV-pressure preemption.  ``tests/test_reference_engine.py``
checks the same engine against an independent per-token reference.

In a fleet a run spans other engines' events, so the fleet scenarios also
cover every read that can observe an engine mid-run: the predicted backlog
(``cost-aware`` classification, ``slo-shed``, the predictive autoscaler),
KV utilisation (``oit-throttle``) and the energy snapshot at the warm-up
boundary.
"""

from __future__ import annotations

import contextlib
import json
from unittest import mock

import pytest

from repro.agents import AgentConfig
from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    MeasurementSpec,
    PoolSpec,
    ServingDriver,
    SessionSpec,
    SystemBuilder,
    TenantSpec,
    WeightedWorkload,
    run_experiment,
)
from repro.api.runners import _build_plan
from repro.llm import EngineConfig, LLMClient, LLMEngine, PerformanceModel, PrefixCache
from repro.llm.request import reset_request_ids
from repro.llm.tokenizer import Prompt, SegmentKind, SyntheticTokenizer
from repro.sim import Environment

from tests.per_token import per_token_decode
from tests.test_cluster_and_policies import tiny_kv_engine_config


def decode_path(fast_forward: bool):
    """The engine as it is, or under the per-token seam."""
    return contextlib.nullcontext() if fast_forward else per_token_decode()


def run_scenario(config: EngineConfig, script, fast_forward: bool):
    """Run ``script`` against a fresh engine; returns (env, engine)."""
    reset_request_ids()
    env = Environment()
    with decode_path(fast_forward):
        engine = LLMEngine(env, config)
        client = LLMClient(env, engine)
        script(env, engine, client)
        env.run()
    return env, engine


def assert_bit_identical(config: EngineConfig, script):
    env_fast, fast = run_scenario(config, script, fast_forward=True)
    env_ref, ref = run_scenario(config, script, fast_forward=False)

    assert env_fast.now == env_ref.now
    assert len(fast.completed_requests) == len(ref.completed_requests)
    for a, b in zip(fast.completed_requests, ref.completed_requests):
        assert a.request_id == b.request_id
        assert a.output_token_ids == b.output_token_ids
        assert a.timings.arrival == b.timings.arrival
        assert a.timings.prefill_time == b.timings.prefill_time
        assert a.timings.decode_time == b.timings.decode_time
        assert a.timings.finished == b.timings.finished
        assert a.num_cached_tokens == b.num_cached_tokens
    assert fast.step_records == ref.step_records
    assert fast.energy.joules_by_state == ref.energy.joules_by_state
    assert fast.energy.seconds_by_state == ref.energy.seconds_by_state
    assert fast.runtime_breakdown() == ref.runtime_breakdown()
    assert fast.kv_memory_stats() == ref.kv_memory_stats()
    assert fast.total_generated_tokens == ref.total_generated_tokens
    assert fast.kv_cache.hit_rate() == ref.kv_cache.hit_rate()
    assert (
        fast.kv_cache.allocator.eviction_count == ref.kv_cache.allocator.eviction_count
    )
    # The fast path must actually have fast-forwarded: strictly fewer events.
    assert env_fast.events_processed < env_ref.events_processed


def user_prompt(engine: LLMEngine, stream: str, tokens: int) -> Prompt:
    prompt = Prompt()
    prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, tokens))
    return prompt


class TestFastForwardEquivalence:
    def test_single_request(self):
        def script(env, engine, client):
            def proc():
                yield client.generate(user_prompt(engine, "solo", 200), output_tokens=150)

            env.process(proc())

        assert_bit_identical(EngineConfig(), script)

    def test_concurrent_batch(self):
        def script(env, engine, client):
            def proc(index):
                yield client.generate(
                    user_prompt(engine, f"batch{index}", 120 + 16 * index),
                    output_tokens=90 + 11 * index,
                )

            for index in range(5):
                env.process(proc(index))

        assert_bit_identical(EngineConfig(), script)

    def test_mid_decode_arrivals_bound_the_chunk(self):
        def script(env, engine, client):
            def early():
                yield client.generate(user_prompt(engine, "early", 150), output_tokens=300)

            def late(index, delay):
                yield env.timeout(delay)
                yield client.generate(
                    user_prompt(engine, f"late{index}", 90), output_tokens=40
                )

            env.process(early())
            # Arrivals land strictly inside the long decode; the fast path
            # must stop each chunk at the arrival to admit the newcomer at
            # the same step the per-token path does.
            for index, delay in enumerate((0.7, 1.3, 2.9)):
                env.process(late(index, delay))

        assert_bit_identical(EngineConfig(), script)

    def test_arrival_exactly_at_a_step_boundary(self):
        def early(env, engine, client):
            def proc():
                yield client.generate(user_prompt(engine, "early", 150), output_tokens=300)

            env.process(proc())

        _, ref = run_scenario(EngineConfig(), early, fast_forward=False)
        step = [record for record in ref.step_records if record.kind == "decode"][40]
        boundary = step.start + step.duration

        def script(env, engine, client):
            def late():
                # Scheduled while the step runs, the arrival lands after the
                # per-token path has already started the next step.
                yield env.timeout_at(step.start + step.duration / 2)
                yield env.timeout_at(boundary)
                yield client.generate(user_prompt(engine, "late", 90), output_tokens=40)

            early(env, engine, client)
            env.process(late())

        assert_bit_identical(EngineConfig(), script)

    def test_run_until_lands_every_ended_step(self):
        """``env.run(until=t)`` returns with every step ending by ``t`` applied."""
        observed = {}
        for fast_forward in (True, False):
            reset_request_ids()
            env = Environment()
            engine = LLMEngine(env, EngineConfig())
            client = LLMClient(env, engine)

            def proc():
                yield client.generate(user_prompt(engine, "paused", 150), output_tokens=300)

            env.process(proc())
            with decode_path(fast_forward):
                env.run(until=2.0)
            (request,) = engine.scheduler.running
            observed[fast_forward] = (
                request.num_output_tokens,
                engine.step_records,
                engine.energy.joules_by_state,
            )
        assert observed[True] == observed[False]

    def test_kv_pressure_preemption(self):
        config = tiny_kv_engine_config(num_blocks=40)

        def script(env, engine, client):
            def proc(index):
                yield client.generate(
                    user_prompt(engine, f"pressure{index}", 96), output_tokens=180
                )

            for index in range(3):
                env.process(proc(index))

        env_fast, fast = run_scenario(config, script, fast_forward=True)
        assert fast.scheduler.preemption_count > 0, "scenario must actually preempt"
        assert_bit_identical(config, script)

    def test_prefix_cache_reuse_across_calls(self):
        def script(env, engine, client):
            def proc():
                first = yield client.generate(
                    user_prompt(engine, "shared", 400), output_tokens=64
                )
                prompt = Prompt()
                prompt.append(engine.tokenizer.span(SegmentKind.USER, "shared", 400))
                prompt.append(
                    engine.tokenizer.span(SegmentKind.LLM_HISTORY, "turn2", 64)
                )
                yield client.generate(prompt, output_tokens=64)
                return first

            env.process(proc())

        assert_bit_identical(EngineConfig(), script)


# ---------------------------------------------------------------------------
# Fleets: a run spans other engines' events
# ---------------------------------------------------------------------------


def run_captured(spec: ExperimentSpec):
    """``run_experiment(spec)`` plus the :class:`System` it assembled."""
    built = []
    original = SystemBuilder.build

    def build(self):
        system = original(self)
        built.append(system)
        return system

    with mock.patch.object(SystemBuilder, "build", build):
        result = run_experiment(spec)
    return result, built[0]


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def assert_fleet_bit_identical(spec: ExperimentSpec) -> None:
    """Fast-forward and the per-token seam give byte-identical results, and
    fast-forward fewer events."""
    fast, fast_system = run_captured(spec)
    with per_token_decode():
        ref, ref_system = run_captured(spec)

    assert canonical(fast.summary()) == canonical(ref.summary())
    assert canonical(fast.per_class_summary()) == canonical(ref.per_class_summary())
    assert canonical(fast.per_pool_summary()) == canonical(ref.per_pool_summary())
    assert canonical(fast.per_class_admission()) == canonical(ref.per_class_admission())
    assert canonical(fast.latencies) == canonical(ref.latencies)
    fast_engines = list(fast_system.cluster.engines)
    ref_engines = list(ref_system.cluster.engines)
    assert len(fast_engines) == len(ref_engines)
    for a, b in zip(fast_engines, ref_engines):
        assert a.step_records == b.step_records
        assert a.energy.joules_by_state == b.energy.joules_by_state
        assert a.energy.seconds_by_state == b.energy.seconds_by_state
    assert fast_system.env.events_processed < ref_system.env.events_processed


CHAT_AND_AGENT = (
    WeightedWorkload(agent="chatbot", workload="sharegpt", weight=0.6, name="chat"),
    WeightedWorkload(agent="react", workload="hotpotqa", weight=0.4, name="agent"),
)


class TestFleetEquivalence:
    """Fleet scenarios, fast-forward against the per-token seam.

    Each engine read that catches a run up has a scenario that fails
    without the catch-up: ``request_queues()`` (the predicted backlog)
    in ``test_cost_aware_classification``, ``kv_utilization()`` in
    ``test_oit_throttle``, ``energy_snapshot()`` in ``test_warmup_window``,
    and the one in ``submit()`` in seven of the eight.
    """

    def test_least_loaded_eight_replicas(self):
        assert_fleet_bit_identical(
            ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                replicas=8,
                router="least-loaded",
                arrival=ArrivalSpec(
                    process="poisson", qps=16.0, num_requests=48, task_pool_size=48
                ),
                seed=3,
            )
        )

    def test_session_affinity_and_prefix_affinity_pools(self):
        assert_fleet_bit_identical(
            ExperimentSpec(
                pools=(
                    PoolSpec(
                        name="chat",
                        replicas=2,
                        router="session-affinity",
                        traffic_classes=("chat",),
                    ),
                    PoolSpec(
                        name="agent",
                        replicas=2,
                        router="prefix-affinity",
                        traffic_classes=("agent",),
                    ),
                ),
                workloads=(
                    WeightedWorkload(
                        agent="chatbot",
                        workload="sharegpt",
                        weight=0.6,
                        name="chat",
                        sessions=SessionSpec(turns=3, think_time_s=1.0),
                    ),
                    CHAT_AND_AGENT[1],
                ),
                agent_config=AgentConfig(max_iterations=3),
                arrival=ArrivalSpec(
                    process="poisson", qps=4.0, num_requests=16, task_pool_size=16
                ),
                seed=5,
            )
        )

    def test_slo_shed_with_predictive_autoscaler(self):
        assert_fleet_bit_identical(
            ExperimentSpec(
                pools=(
                    PoolSpec(name="chat", replicas=2, traffic_classes=("chat",)),
                    PoolSpec(
                        name="agent",
                        replicas=1,
                        router="least-loaded",
                        traffic_classes=("agent",),
                        hardware="L4",
                    ),
                ),
                workloads=CHAT_AND_AGENT,
                agent_config=AgentConfig(max_iterations=4),
                arrival=ArrivalSpec(
                    process="poisson", qps=6.0, num_requests=40, task_pool_size=40
                ),
                admission=AdmissionSpec(
                    per_class=(
                        (
                            "agent",
                            AdmissionSpec(
                                policy="slo-shed", slo_p95_s=4.0, protect_class="chat"
                            ),
                        ),
                    )
                ),
                autoscaler=AutoscalerSpec(
                    pool="agent",
                    min_replicas=1,
                    max_replicas=3,
                    check_interval_s=1.0,
                    warmup_s=2.0,
                    mode="predictive",
                    forecaster="holt",
                ),
                seed=2,
            )
        )

    def test_oit_throttle(self):
        # Tiny KV caches keep the fleet's peak utilisation around the
        # throttle's threshold, so its reads decide who gets shed.
        assert_fleet_bit_identical(
            ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                replicas=3,
                router="least-loaded",
                kv_cache_fraction=0.02,
                arrival=ArrivalSpec(
                    process="poisson",
                    qps=8.0,
                    num_requests=40,
                    task_pool_size=40,
                    tenants=TenantSpec(num_users=1000, skew=1.2, num_apps=2),
                ),
                admission=AdmissionSpec(
                    policy="oit-throttle",
                    user_rpm=None,
                    app_rpm=8.0,
                    kv_threshold=0.6,
                    queue_threshold=100.0,
                ),
                seed=4,
            )
        )

    def test_warmup_window(self):
        assert_fleet_bit_identical(
            ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                replicas=4,
                router="least-loaded",
                arrival=ArrivalSpec(
                    process="poisson", qps=8.0, num_requests=24, task_pool_size=24
                ),
                measurement=MeasurementSpec(warmup_requests=6),
                seed=6,
            )
        )

    def test_cost_aware_classification(self):
        assert_fleet_bit_identical(
            ExperimentSpec(
                pools=(
                    PoolSpec(name="fast", replicas=2, hardware="H100-80GB"),
                    PoolSpec(name="cheap", replicas=2, hardware="L4"),
                ),
                workloads=CHAT_AND_AGENT,
                agent_config=AgentConfig(max_iterations=3),
                arrival=ArrivalSpec(
                    process="poisson", qps=8.0, num_requests=32, task_pool_size=32
                ),
                pool_classification="cost-aware",
                measurement=MeasurementSpec(class_slos=(("chat", 3.0), ("agent", 6.0))),
                seed=7,
            )
        )

    def test_chunked_prefill_four_replicas(self):
        assert_fleet_bit_identical(
            ExperimentSpec(
                agent="chatbot",
                workload="sharegpt",
                replicas=4,
                router="least-loaded",
                prefill_chunk_tokens=64,
                arrival=ArrivalSpec(
                    process="poisson", qps=10.0, num_requests=32, task_pool_size=32
                ),
                seed=8,
            )
        )

    def test_tiny_kv_preemption_across_replicas(self):
        spec = ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            replicas=3,
            router="round-robin",
            kv_cache_fraction=0.004,
            arrival=ArrivalSpec(
                process="poisson", qps=12.0, num_requests=30, task_pool_size=30
            ),
            seed=9,
        )
        _, system = run_captured(spec)
        assert system.cluster.preemption_count > 0, "scenario must actually preempt"
        assert_fleet_bit_identical(spec)


class TestPinnedCounters:
    """Exact work counters of one tiny fleet.

    Every counter is a pure function of the spec, so a change that makes
    decode runs stop at other engines' events again (over 2,500 events
    with fast-forward on) fails here exactly, not by timing noise.  So does
    a return to per-token or per-request work inside a run: a roofline
    call per virtual step rather than one per run
    (``decode_run_step_times``, which ``decode_step_time`` also goes
    through), a KV call for every running sequence rather than for those at
    a block boundary (``append_token``), or materialising output ids per
    token (``synthetic_tokens``).
    """

    SPEC = ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        replicas=4,
        router="least-loaded",
        arrival=ArrivalSpec(
            process="poisson", qps=8.0, num_requests=16, task_pool_size=16
        ),
        seed=11,
    )
    ENGINE_STEPS = 2693
    COUNTED = (
        (PerformanceModel, "decode_run_step_times"),
        (PrefixCache, "append_token"),
        (SyntheticTokenizer, "synthetic_tokens"),
    )

    def counters(self, fast_forward: bool):
        """(events processed, non-idle engine steps, calls of each COUNTED
        method) of one served run, fast-forwarded or under the per-token
        seam."""
        reset_request_ids()
        calls = {name: 0 for _, name in self.COUNTED}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        with contextlib.ExitStack() as stack:
            for owner, name in self.COUNTED:
                stack.enter_context(
                    mock.patch.object(
                        owner, name, counting(name, getattr(owner, name))
                    )
                )
            stack.enter_context(decode_path(fast_forward))
            system = SystemBuilder(self.SPEC).build()
            ServingDriver(system).serve(_build_plan(system))
        steps = sum(
            1
            for engine in system.cluster.engines
            for record in engine.step_records
            if record.kind != "idle"
        )
        return (
            system.env.events_processed,
            steps,
            *(calls[name] for _, name in self.COUNTED),
        )

    def test_fast_forward_on(self):
        # One roofline evaluation per run start, a KV call only for a
        # sequence at a block boundary when a run starts, and token ids
        # produced once per prompt and once per finished request (its
        # prefix-cache hash and its result share them).
        assert self.counters(True) == (156, self.ENGINE_STEPS, 25, 1, 32)

    def test_fast_forward_off(self):
        # Every step is a real step here: one roofline evaluation each.
        assert self.counters(False) == (2798, self.ENGINE_STEPS, 2677, 322, 32)
