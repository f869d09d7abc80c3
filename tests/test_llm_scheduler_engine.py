"""Tests for the FCFS scheduler and the discrete-event serving engine."""

from __future__ import annotations

import pytest

from repro.llm import (
    EngineConfig,
    KVCacheConfig,
    LLMClient,
    LLMEngine,
    PrefixCache,
    Prompt,
    SamplingParams,
    Scheduler,
    SchedulerConfig,
    StepKind,
)
from repro.llm.models import LLAMA_3_1_8B
from repro.llm.request import LLMRequest, RequestState
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer
from repro.sim import Environment

TOKENIZER = SyntheticTokenizer()


def make_request(prompt_tokens: int, output_tokens: int = 16, stream: str = "req") -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, prompt_tokens))
    request = LLMRequest(prompt=prompt, sampling=SamplingParams(output_tokens=output_tokens))
    # What an engine stamps at submit: a request's output ids are drawn from
    # it when a preemption or a finish frees and hashes the request.
    request.tokenizer = TOKENIZER
    return request


def make_scheduler(num_blocks: int = 256, **scheduler_kwargs) -> Scheduler:
    config = KVCacheConfig(
        block_size=16,
        num_blocks=num_blocks,
        bytes_per_block=16 * LLAMA_3_1_8B.kv_bytes_per_token,
        enable_prefix_caching=True,
    )
    return Scheduler(SchedulerConfig(**scheduler_kwargs), PrefixCache(config))


class TestScheduler:
    def test_no_work_returns_none(self):
        scheduler = make_scheduler()
        assert scheduler.schedule() is None

    def test_waiting_request_becomes_prefill_step(self):
        scheduler = make_scheduler()
        request = make_request(100)
        scheduler.add_request(request)
        step = scheduler.schedule()
        assert step.kind is StepKind.PREFILL
        assert step.prefills[0].request is request
        assert request.state is RequestState.RUNNING

    def test_prefill_has_priority_over_decode(self):
        scheduler = make_scheduler()
        running = make_request(64, stream="a")
        scheduler.add_request(running)
        first = scheduler.schedule()
        scheduler.on_prefill_complete(first.prefills)

        scheduler.add_request(make_request(64, stream="b"))
        step = scheduler.schedule()
        assert step.kind is StepKind.PREFILL

    def test_decode_step_covers_all_running(self):
        scheduler = make_scheduler()
        for index in range(3):
            scheduler.add_request(make_request(64, stream=f"r{index}"))
        step = scheduler.schedule()
        scheduler.on_prefill_complete(step.prefills)
        decode = scheduler.schedule()
        assert decode.kind is StepKind.DECODE
        assert len(decode.decodes) == 3

    def test_token_budget_limits_prefill_batch(self):
        scheduler = make_scheduler(max_num_batched_tokens=150)
        scheduler.add_request(make_request(100, stream="a"))
        scheduler.add_request(make_request(100, stream="b"))
        step = scheduler.schedule()
        assert len(step.prefills) == 1
        assert scheduler.num_waiting == 1

    def test_max_num_seqs_limits_admission(self):
        scheduler = make_scheduler(max_num_seqs=2)
        for index in range(4):
            scheduler.add_request(make_request(32, stream=f"s{index}"))
        step = scheduler.schedule()
        assert len(step.prefills) == 2
        assert scheduler.num_waiting == 2

    def test_admission_stops_when_kv_cache_full(self):
        scheduler = make_scheduler(num_blocks=8)
        scheduler.add_request(make_request(64, stream="fits"))       # 4 blocks
        scheduler.add_request(make_request(128, stream="too-big"))   # 8 blocks > remaining
        step = scheduler.schedule()
        assert len(step.prefills) == 1
        assert scheduler.num_waiting == 1

    def test_finish_request_frees_and_removes(self):
        scheduler = make_scheduler()
        request = make_request(64)
        scheduler.add_request(request)
        step = scheduler.schedule()
        scheduler.on_prefill_complete(step.prefills)
        scheduler.finish_request(request)
        assert scheduler.num_running == 0
        assert request.state is RequestState.FINISHED
        assert scheduler.kv_cache.active_blocks() == 0

    def test_preemption_when_decode_runs_out_of_blocks(self):
        # Two requests fill the cache; growing them forces a preemption.
        scheduler = make_scheduler(num_blocks=9)
        first = make_request(64, output_tokens=64, stream="a")    # 4 blocks
        second = make_request(64, output_tokens=64, stream="b")   # 4 blocks
        scheduler.add_request(first)
        scheduler.add_request(second)
        step = scheduler.schedule()
        scheduler.on_prefill_complete(step.prefills)
        # Simulate decoding until block boundaries force new allocations.
        for request in (first, second):
            request.num_output_tokens += 16
        decode = scheduler.schedule()
        assert decode.kind is StepKind.DECODE
        assert scheduler.preemption_count >= 1
        assert scheduler.num_waiting >= 1


class TestEngine:
    def run_single(self, env, engine, prompt_tokens=200, output_tokens=64, stream="a"):
        client = LLMClient(env, engine)
        prompt = Prompt()
        prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, prompt_tokens))

        def proc():
            result = yield client.generate(prompt, output_tokens=output_tokens)
            return result

        return env.run(env.process(proc()))

    def test_single_request_produces_requested_tokens(self, env, engine):
        result = self.run_single(env, engine, output_tokens=48)
        assert result.output_tokens == 48
        assert result.prompt_tokens == 200
        assert result.e2e_latency > 0

    def test_timings_are_consistent(self, env, engine):
        result = self.run_single(env, engine)
        assert result.prefill_time > 0
        assert result.decode_time > 0
        assert result.e2e_latency >= result.prefill_time
        assert result.finish_time == pytest.approx(result.arrival_time + result.e2e_latency)

    def test_longer_outputs_take_longer(self):
        env_a, env_b = Environment(), Environment()
        engine_a = LLMEngine(env_a, EngineConfig())
        engine_b = LLMEngine(env_b, EngineConfig())
        short = self.run_single(env_a, engine_a, output_tokens=32)
        long = self.run_single(env_b, engine_b, output_tokens=256)
        assert long.e2e_latency > short.e2e_latency

    def test_energy_accumulates_per_request(self, env, engine):
        self.run_single(env, engine)
        assert engine.energy.total_wh > 0
        assert engine.energy.seconds_by_state is not None

    def test_kv_cache_released_after_completion(self, env, engine):
        self.run_single(env, engine)
        assert engine.kv_cache.active_blocks() == 0

    def test_step_records_cover_prefill_and_decode(self, env, engine):
        self.run_single(env, engine)
        kinds = {record.kind for record in engine.step_records}
        assert "prefill" in kinds
        assert "decode" in kinds

    def test_concurrent_requests_batch_and_all_finish(self, env, engine):
        client = LLMClient(env, engine)

        def proc(stream):
            prompt = Prompt()
            prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, 150))
            result = yield client.generate(prompt, output_tokens=64)
            return result

        processes = [env.process(proc(f"s{i}")) for i in range(6)]
        env.run()
        assert all(process.value.output_tokens == 64 for process in processes)
        max_batch = max(record.batch_size for record in engine.step_records if record.kind == "decode")
        assert max_batch >= 2  # continuous batching actually batched

    def test_batched_execution_faster_than_sequential(self):
        def total_time(concurrent: bool) -> float:
            env = Environment()
            engine = LLMEngine(env, EngineConfig())
            client = LLMClient(env, engine)

            def proc(stream):
                prompt = Prompt()
                prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, 150))
                yield client.generate(prompt, output_tokens=100)

            if concurrent:
                for index in range(4):
                    env.process(proc(f"c{index}"))
                env.run()
            else:
                for index in range(4):
                    env.run(env.process(proc(f"s{index}")))
            return env.now

        assert total_time(concurrent=True) < total_time(concurrent=False)

    def test_prefix_caching_reduces_latency_of_repeated_prompt(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig(enable_prefix_caching=True))
        first = self.run_single(env, engine, prompt_tokens=2000, output_tokens=16, stream="shared")
        second = self.run_single(env, engine, prompt_tokens=2000, output_tokens=16, stream="shared")
        assert second.cached_prompt_tokens > 1500
        assert second.prefill_time < first.prefill_time

    def test_prefix_caching_disabled_never_caches(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig(enable_prefix_caching=False))
        self.run_single(env, engine, prompt_tokens=2000, output_tokens=16, stream="shared")
        second = self.run_single(env, engine, prompt_tokens=2000, output_tokens=16, stream="shared")
        assert second.cached_prompt_tokens == 0

    def test_idle_period_recorded_between_requests(self, env, engine):
        client = LLMClient(env, engine)

        def proc():
            prompt = Prompt()
            prompt.append(engine.tokenizer.span(SegmentKind.USER, "gap", 100))
            yield client.generate(prompt, output_tokens=16)
            yield env.timeout(5.0)  # models a long tool call: the GPU sits idle
            yield client.generate(prompt, output_tokens=16)

        env.run(env.process(proc()))
        breakdown = engine.runtime_breakdown()
        assert breakdown["idle"] == pytest.approx(5.0, abs=0.5)

    def test_runtime_breakdown_window_clipping(self, env, engine):
        result = self.run_single(env, engine, output_tokens=64)
        half = result.finish_time / 2
        first_half = engine.runtime_breakdown(0.0, half)
        total = engine.runtime_breakdown(0.0, result.finish_time)
        assert sum(first_half.values()) <= sum(total.values()) + 1e-9

    def test_kv_memory_stats_positive_during_run(self, env, engine):
        result = self.run_single(env, engine, prompt_tokens=500, output_tokens=64)
        stats = engine.kv_memory_stats(0.0, result.finish_time)
        assert stats["max_bytes"] > 0
        assert 0 < stats["average_bytes"] <= stats["max_bytes"]

    def test_empty_prompt_rejected_by_client(self, env, engine):
        client = LLMClient(env, engine)
        with pytest.raises(ValueError):
            client.generate(Prompt(), output_tokens=10)

