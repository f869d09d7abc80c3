"""Tests for the engine-fidelity features: chunked prefill and speculation.

Chunked prefill (``EngineConfig.prefill_chunk_tokens``) slices prompts
into per-iteration token budgets co-scheduled with running decodes;
speculative decoding (``EngineConfig.speculative``) drafts several tokens
per verify step and keeps the accepted run.  Both default off and must
leave the default engine bit-for-bit unchanged (the golden-pinned suites
enforce that); these tests cover the features when they are *on*:
chunk-boundary accounting, KV-pressure preemption of partial prefills,
mid-chunk arrivals, acceptance-draw determinism, and the API plumbing.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, PoolSpec, SpeculativeSpec
from repro.api.builder import SystemBuilder
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
from repro.llm.energy import PowerState
from repro.llm.hardware import ClusterSpec
from repro.llm.models import LLAMA_3_1_8B
from repro.llm.request import LLMRequest, RequestState
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer
from repro.sim import Environment

TOKENIZER = SyntheticTokenizer()


def make_request(prompt_tokens: int, output_tokens: int = 16, stream: str = "req") -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, prompt_tokens))
    return LLMRequest(prompt=prompt, sampling=SamplingParams(output_tokens=output_tokens))


def make_scheduler(
    num_blocks: int = 256,
    prefill_chunk_tokens: int = 64,
    **scheduler_kwargs,
) -> Scheduler:
    config = KVCacheConfig(
        block_size=16,
        num_blocks=num_blocks,
        bytes_per_block=16 * LLAMA_3_1_8B.kv_bytes_per_token,
        enable_prefix_caching=True,
    )
    return Scheduler(
        SchedulerConfig(**scheduler_kwargs),
        PrefixCache(config),
        prefill_chunk_tokens=prefill_chunk_tokens,
    )


def tiny_kv_engine_config(num_blocks: int = 12, **engine_kwargs) -> EngineConfig:
    """An 8B engine whose KV cache holds only ``num_blocks`` blocks."""
    model = LLAMA_3_1_8B
    target_bytes = model.kv_bytes_per_token * 16 * num_blocks
    utilization = (model.weight_bytes + 2.0e9 + target_bytes) / 40e9
    return EngineConfig(
        model=model,
        cluster=ClusterSpec(gpu_memory_utilization=utilization),
        **engine_kwargs,
    )


def run_single(env, engine, prompt_tokens=200, output_tokens=64, stream="a"):
    client = LLMClient(env, engine)
    prompt = Prompt()
    prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, prompt_tokens))

    def proc():
        result = yield client.generate(prompt, output_tokens=output_tokens)
        return result

    return env.run(env.process(proc()))


class TestChunkedScheduler:
    def test_chunk_budget_limits_tokens_per_step(self):
        scheduler = make_scheduler(prefill_chunk_tokens=64)
        request = make_request(200)
        scheduler.add_request(request)
        step = scheduler.schedule()
        assert step.kind is StepKind.MIXED
        (item,) = step.prefills
        assert item.new_tokens == 64
        assert not item.last_chunk
        assert request in scheduler.prefilling
        assert scheduler.num_running == 0

    def test_chunks_walk_prompt_to_completion(self):
        scheduler = make_scheduler(prefill_chunk_tokens=64)
        request = make_request(200)
        scheduler.add_request(request)
        chunks = []
        # Drive the scheduler the way the engine does: advance the computed
        # watermark after each step and hand completed chunks back.
        while scheduler.prefilling or scheduler.num_waiting:
            step = scheduler.schedule()
            (item,) = step.prefills
            request.num_computed_tokens += item.new_tokens
            chunks.append(item.new_tokens)
            scheduler.on_prefill_complete(step.prefills)
        assert chunks == [64, 64, 64, 8]
        assert request.num_computed_tokens == 200
        assert scheduler.num_running == 1
        decode = scheduler.schedule()
        assert decode.kind is StepKind.DECODE

    def test_decode_reservation_shrinks_chunk_budget(self):
        # One running decode against max_num_batched_tokens=33 leaves a
        # 32-token prefill budget, under the 64-token chunk setting.
        scheduler = make_scheduler(prefill_chunk_tokens=64, max_num_batched_tokens=33)
        short = make_request(32, stream="short")
        scheduler.add_request(short)
        first = scheduler.schedule()
        assert first.prefills[0].last_chunk
        short.num_computed_tokens += first.prefills[0].new_tokens
        scheduler.on_prefill_complete(first.prefills)

        long = make_request(200, stream="long")
        scheduler.add_request(long)
        step = scheduler.schedule()
        assert step.kind is StepKind.MIXED
        assert len(step.decodes) == 1
        (item,) = step.prefills
        assert item.new_tokens == 32


class TestChunkedEngine:
    def test_chunked_prefill_emits_all_tokens_via_mixed_steps(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig(prefill_chunk_tokens=64))
        result = run_single(env, engine, prompt_tokens=200, output_tokens=48)
        assert result.output_tokens == 48
        assert result.prompt_tokens == 200
        kinds = {record.kind for record in engine.step_records}
        assert "mixed" in kinds
        assert engine.kv_cache.active_blocks() == 0
        assert engine.total_prefill_tokens == 200

    def test_chunked_runtime_lands_in_mixed_bucket(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig(prefill_chunk_tokens=64))
        run_single(env, engine, prompt_tokens=500, output_tokens=16)
        breakdown = engine.runtime_breakdown()
        assert breakdown["mixed"] > 0

    def test_mid_chunk_arrival_coscheduled_with_inflight_prefill(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig(prefill_chunk_tokens=64))
        client = LLMClient(env, engine)

        def proc(stream, prompt_tokens, delay):
            prompt = Prompt()
            prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, prompt_tokens))
            yield env.timeout(delay)
            result = yield client.generate(prompt, output_tokens=16)
            return result

        # b arrives while a is mid-way through its chunked prefill.
        a = env.process(proc("a", 2000, 0.0))
        b = env.process(proc("b", 200, 0.05))
        env.run()
        assert a.value.output_tokens == 16
        assert b.value.output_tokens == 16
        # Both prompts made progress inside one mixed step at least once.
        assert any(
            record.kind == "mixed" and record.batch_size >= 2
            for record in engine.step_records
        )
        assert engine.kv_cache.active_blocks() == 0

    def test_chunked_prefill_under_kv_pressure_preempts_and_recovers(self):
        env = Environment()
        engine = LLMEngine(
            env, tiny_kv_engine_config(num_blocks=12, prefill_chunk_tokens=32)
        )
        client = LLMClient(env, engine)

        def proc(stream, prompt_tokens, output_tokens, delay):
            prompt = Prompt()
            prompt.append(engine.tokenizer.span(SegmentKind.USER, stream, prompt_tokens))
            yield env.timeout(delay)
            result = yield client.generate(prompt, output_tokens=output_tokens)
            return result

        # a grows from 4 to 8 blocks while decoding; b's 96-token prompt
        # (6 blocks) chunk-prefills into the shrinking remainder, so its
        # partial prefill must be preempted and later restarted.
        a = env.process(proc("a", 64, 64, 0.0))
        b = env.process(proc("b", 96, 16, 0.1))
        env.run()
        assert a.value.output_tokens == 64
        assert b.value.output_tokens == 16
        assert engine.scheduler.preemption_count >= 1
        assert engine.kv_cache.active_blocks() == 0

    def test_chunking_removes_prefill_hol_blocking(self):
        def hol(config: EngineConfig) -> float:
            env = Environment()
            engine = LLMEngine(env, config)
            client = LLMClient(env, engine)

            def proc(stream, prompt_tokens, output_tokens, delay):
                prompt = Prompt()
                prompt.append(
                    engine.tokenizer.span(SegmentKind.USER, stream, prompt_tokens)
                )
                yield env.timeout(delay)
                yield client.generate(prompt, output_tokens=output_tokens)

            env.process(proc("decoding", 100, 400, 0.0))
            env.process(proc("late-long-prompt", 4000, 16, 1.0))
            env.run()
            return engine.prefill_hol_block_s

        assert hol(EngineConfig()) > 0
        assert hol(EngineConfig(prefill_chunk_tokens=256)) == 0.0


class TestSpeculative:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SpeculativeSpec(acceptance=-0.1)
        with pytest.raises(ValueError):
            SpeculativeSpec(acceptance=1.5)
        with pytest.raises(ValueError):
            SpeculativeSpec(draft_ratio=0.0)
        with pytest.raises(ValueError):
            SpeculativeSpec(num_speculative_tokens=0)

    def test_draws_are_deterministic_per_request(self):
        spec = SpeculativeSpec()
        first = spec.acceptance_stream(7)
        second = spec.acceptance_stream(7)
        draws_a = [spec.draw_accepted(first) for _ in range(64)]
        draws_b = [spec.draw_accepted(second) for _ in range(64)]
        assert draws_a == draws_b
        other = spec.acceptance_stream(8)
        assert draws_a != [spec.draw_accepted(other) for _ in range(64)]

    def test_draw_bounds_and_mean_match_analytic_expectation(self):
        spec = SpeculativeSpec(acceptance=0.7, num_speculative_tokens=4)
        stream = spec.acceptance_stream(0)
        draws = [spec.draw_accepted(stream) for _ in range(4000)]
        assert all(0 <= draw <= 4 for draw in draws)
        expected = spec.expected_tokens_per_step() - 1.0  # accepted, sans bonus
        assert sum(draws) / len(draws) == pytest.approx(expected, rel=0.05)

    def test_speculative_engine_is_deterministic(self):
        from repro.llm.request import reset_request_ids

        def once():
            # Acceptance substreams are keyed by request id, which is a
            # process-global counter -- reset it the way run_experiment does
            # so both runs see the same ids.
            reset_request_ids()
            env = Environment()
            engine = LLMEngine(env, EngineConfig(speculative=SpeculativeSpec()))
            result = run_single(env, engine, output_tokens=100)
            return result.e2e_latency, engine.spec_sequence_steps, engine.spec_accepted_tokens

        assert once() == once()

    def test_speculative_faster_and_books_draft_energy(self):
        env_a = Environment()
        baseline_engine = LLMEngine(env_a, EngineConfig())
        baseline = run_single(env_a, baseline_engine, output_tokens=200)
        env_b = Environment()
        engine = LLMEngine(env_b, EngineConfig(speculative=SpeculativeSpec()))
        result = run_single(env_b, engine, output_tokens=200)
        assert result.output_tokens == 200
        assert result.e2e_latency < baseline.e2e_latency
        assert engine.energy.seconds_by_state[PowerState.DRAFT] > 0
        assert engine.energy.joules_by_state[PowerState.DRAFT] > 0
        assert baseline_engine.energy.joules_by_state[PowerState.DRAFT] == 0

    def test_speculative_token_count_exact_for_odd_lengths(self):
        env = Environment()
        engine = LLMEngine(env, EngineConfig(speculative=SpeculativeSpec()))
        result = run_single(env, engine, output_tokens=37)
        assert result.output_tokens == 37
        assert engine.kv_cache.active_blocks() == 0


class TestEngineFidelityStudy:
    def test_mini_study_headline_and_accessors(self):
        from repro.analysis import engine_fidelity_study

        study = engine_fidelity_study(
            qps=8.0,
            num_requests=10,
            chunk_values=(None, 128),
            max_num_seqs=2,
            task_pool_size=4,
        )
        rows = study.rows()
        assert len(rows) == 4  # 2 chunk budgets x speculation off/on
        assert "chat_p95_s" in rows[0]

        # Chunking zeroes head-of-line blocking; speculation books draft
        # energy and accepts at least some draft tokens.
        assert study.metric("prefill_hol_block_s", chunk="128", spec="off") == 0.0
        trade = study.speculation_tradeoff()
        assert trade["draft_j"] > 0
        assert trade["accepted"] > 0

        advantage = study.chunking_advantage("128")
        assert set(advantage) == {"chat_p95_s", "hol_s", "replica_s"}

        assert study.frontier()  # non-empty, queryable
        assert "Engine fidelity" in study.format()
        assert "Pareto frontier" in study.format_frontier()


class TestConfigAndPlumbing:
    def test_engine_config_rejects_empty_prefill_chunk(self):
        with pytest.raises(ValueError):
            EngineConfig(prefill_chunk_tokens=0)

    def test_spec_round_trips_through_dict(self):
        spec = ExperimentSpec(
            prefill_chunk_tokens=256,
            speculative=SpeculativeSpec(acceptance=0.5, num_speculative_tokens=2),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_builder_pool_overrides(self):
        spec = ExperimentSpec(
            pools=(
                PoolSpec(name="fast", prefill_chunk_tokens=128),
                PoolSpec(name="spec", speculative=SpeculativeSpec()),
                PoolSpec(name="plain"),
            ),
            prefill_chunk_tokens=512,
        )
        builder = SystemBuilder(spec)
        fast, spec_pool, plain = spec.pools
        assert builder.engine_config(fast).prefill_chunk_tokens == 128
        assert builder.engine_config(spec_pool).speculative == SpeculativeSpec()
        assert builder.engine_config(plain).prefill_chunk_tokens == 512
        assert builder.engine_config(plain).speculative is None
