"""Tests for the calibration tables, accuracy model, and behaviour oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle import (
    AGENT_PROFILES,
    BENCHMARK_PROFILES,
    MODEL_QUALITY,
    TaskOracle,
    answer_success_probability,
    few_shot_gain,
    get_agent_profile,
    get_benchmark_profile,
    get_model_quality,
    parallel_candidate_boost,
    reflection_gain,
    step_success_probability,
)
from repro.sim import RandomStream


class TestCalibrationTables:
    def test_all_paper_benchmarks_present(self):
        for name in ("hotpotqa", "webshop", "math", "humaneval", "sharegpt"):
            assert name in BENCHMARK_PROFILES

    def test_all_paper_agents_present(self):
        for name in ("cot", "react", "reflexion", "lats", "llmcompiler", "chatbot"):
            assert name in AGENT_PROFILES

    def test_lookup_is_case_insensitive(self):
        assert get_benchmark_profile("HotpotQA").name == "hotpotqa"
        assert get_agent_profile("ReAct").name == "react"

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError):
            get_benchmark_profile("triviaqa")
        with pytest.raises(KeyError):
            get_agent_profile("autogen")
        with pytest.raises(KeyError):
            get_model_quality("mistral-7b")

    def test_model_quality_by_size_alias(self):
        assert get_model_quality("llama-3.1-8b-instruct").step_quality == 1.0
        assert get_model_quality("70b").step_quality > 1.0

    def test_70b_is_strictly_better_than_8b(self):
        small = MODEL_QUALITY["llama-3.1-8b-instruct"]
        large = MODEL_QUALITY["llama-3.1-70b-instruct"]
        assert large.step_quality > small.step_quality
        assert large.answer_quality > small.answer_quality

    def test_tool_latency_calibration_matches_paper(self):
        # Wikipedia calls average ~1.2 s, WebShop ~20 ms (paper Section IV-A).
        assert BENCHMARK_PROFILES["hotpotqa"].tool_latency.mean == pytest.approx(1.2)
        assert BENCHMARK_PROFILES["webshop"].tool_latency.mean == pytest.approx(0.02)

    def test_humaneval_tool_uses_gpu(self):
        assert BENCHMARK_PROFILES["humaneval"].tool_uses_gpu
        assert not BENCHMARK_PROFILES["hotpotqa"].tool_uses_gpu

    def test_llmcompiler_is_penalised_on_webshop(self):
        profile = AGENT_PROFILES["llmcompiler"]
        assert profile.step_factor_for("webshop") < profile.step_factor_for("hotpotqa")

    def test_probabilities_are_valid(self):
        for profile in BENCHMARK_PROFILES.values():
            assert 0 < profile.base_step_prob <= 1
            assert 0 < profile.base_answer_prob <= 1
            assert 0 <= profile.guess_prob <= 1
            assert profile.solution_depth_range[0] >= 1
            assert profile.solution_depth_range[1] >= profile.solution_depth_range[0]


class TestAccuracyModel:
    def _probability(self, **overrides):
        defaults = dict(
            benchmark=get_benchmark_profile("hotpotqa"),
            agent=get_agent_profile("react"),
            model=get_model_quality("8b"),
            difficulty=0.5,
            num_few_shot=2,
            reflection_round=0,
            num_candidates=1,
        )
        defaults.update(overrides)
        return step_success_probability(**defaults)

    def test_step_probability_within_bounds(self):
        assert 0.02 <= self._probability() <= 0.97

    def test_harder_tasks_have_lower_step_probability(self):
        assert self._probability(difficulty=0.9) < self._probability(difficulty=0.1)

    def test_bigger_model_has_higher_step_probability(self):
        assert self._probability(model=get_model_quality("70b")) > self._probability()

    def test_few_shot_gain_saturates(self):
        gains = [few_shot_gain(n) for n in range(0, 9)]
        assert gains[0] < 0  # zero-shot penalty
        assert gains[2] > gains[1] > gains[0]
        assert gains[8] < gains[4]  # prompt overload eventually hurts

    def test_reflection_gain_monotone_and_capped(self):
        values = [reflection_gain(round_index) for round_index in range(0, 12)]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert max(values) <= 0.22 + 1e-9

    def test_parallel_candidate_boost_monotone(self):
        probabilities = [parallel_candidate_boost(0.3, n) for n in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(probabilities, probabilities[1:]))
        assert probabilities[0] == pytest.approx(0.3)

    def test_parallel_candidate_boost_sublinear(self):
        # 4 correlated candidates are worse than 4 independent tries.
        independent = 1 - (1 - 0.3) ** 4
        assert parallel_candidate_boost(0.3, 4) < independent

    def test_answer_probability_unsolved_is_guess_level(self):
        probability = answer_success_probability(
            benchmark=get_benchmark_profile("hotpotqa"),
            agent=get_agent_profile("react"),
            model=get_model_quality("8b"),
            difficulty=0.5,
            solved=False,
        )
        assert probability <= 0.3

    def test_answer_probability_respects_asymptote(self):
        probability = answer_success_probability(
            benchmark=get_benchmark_profile("hotpotqa"),
            agent=get_agent_profile("lats"),
            model=get_model_quality("70b"),
            difficulty=0.0,
            solved=True,
            num_candidates=64,
        )
        assert probability <= get_agent_profile("lats").answer_asymptote + 1e-9

    def test_answer_probability_solved_beats_unsolved(self):
        kwargs = dict(
            benchmark=get_benchmark_profile("math"),
            agent=get_agent_profile("react"),
            model=get_model_quality("8b"),
            difficulty=0.4,
        )
        assert answer_success_probability(solved=True, **kwargs) > answer_success_probability(
            solved=False, **kwargs
        )

    @given(
        difficulty=st.floats(0.0, 1.0),
        few_shot=st.integers(0, 8),
        reflections=st.integers(0, 10),
        candidates=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_probability_always_a_probability(self, difficulty, few_shot, reflections, candidates):
        probability = step_success_probability(
            benchmark=get_benchmark_profile("webshop"),
            agent=get_agent_profile("lats"),
            model=get_model_quality("70b"),
            difficulty=difficulty,
            num_few_shot=few_shot,
            reflection_round=reflections,
            num_candidates=candidates,
        )
        assert 0.0 <= probability <= 1.0


def make_oracle(agent="react", benchmark="hotpotqa", model="8b", difficulty=0.5, depth=2, seed=5):
    return TaskOracle(
        difficulty=difficulty,
        solution_depth=depth,
        benchmark=get_benchmark_profile(benchmark),
        agent=get_agent_profile(agent),
        model=get_model_quality(model),
        num_few_shot=2,
        stream=RandomStream(seed, "oracle-test"),
    )


class TestTaskOracle:
    def test_invalid_solution_depth_rejected(self):
        with pytest.raises(ValueError):
            make_oracle(depth=0)

    def test_progress_accumulates_until_solved(self):
        oracle = make_oracle(depth=2)
        for _ in range(100):
            if oracle.solved:
                break
            oracle.attempt_step()
        assert oracle.solved
        assert oracle.progress == 2

    def test_progress_never_exceeds_depth(self):
        oracle = make_oracle(depth=2)
        for _ in range(50):
            oracle.attempt_step()
        assert oracle.progress <= oracle.solution_depth

    def test_judge_final_answer_is_deterministic_per_task(self):
        oracle = make_oracle()
        oracle.progress = oracle.solution_depth
        first = oracle.judge_final_answer()
        assert all(oracle.judge_final_answer() == first for _ in range(5))

    def test_more_candidates_never_hurt_the_answer(self):
        oracle = make_oracle()
        oracle.progress = oracle.solution_depth
        if oracle.judge_final_answer(num_candidates=1):
            assert oracle.judge_final_answer(num_candidates=8)

    def test_reset_trial_clears_progress_but_not_reflections(self):
        oracle = make_oracle()
        oracle.attempt_step()
        oracle.note_reflection()
        oracle.reset_trial()
        assert oracle.progress == 0
        assert oracle.reflection_round == 1
        assert oracle.trials_started == 2

    def test_reflections_raise_step_probability(self):
        oracle = make_oracle()
        before = oracle.step_probability()
        oracle.note_reflection()
        oracle.note_reflection()
        assert oracle.step_probability() > before

    def test_sample_output_tokens_known_roles(self):
        oracle = make_oracle()
        for role in TaskOracle.ROLES:
            assert oracle.sample_output_tokens(role) >= 1

    def test_sample_output_tokens_unknown_role_raises(self):
        with pytest.raises(KeyError):
            make_oracle().sample_output_tokens("poetry")

    def test_score_full_for_correct(self):
        oracle = make_oracle()
        assert oracle.score(True) == 1.0

    def test_webshop_partial_credit_when_solved_but_wrong(self):
        oracle = make_oracle(benchmark="webshop", depth=1)
        oracle.progress = 1
        assert oracle.score(False) == pytest.approx(0.35)

    def test_no_credit_when_unsolved_and_wrong(self):
        oracle = make_oracle()
        assert oracle.score(False) == 0.0

    def test_evaluator_mostly_detects_wrong_answers(self):
        detections = []
        for seed in range(300):
            oracle = make_oracle(seed=seed)
            detections.append(oracle.evaluator_detects_failure(answer_correct=False))
        rate = sum(detections) / len(detections)
        assert 0.85 < rate < 0.98

    def test_evaluator_rarely_flags_correct_answers(self):
        detections = []
        for seed in range(300):
            oracle = make_oracle(seed=seed)
            detections.append(oracle.evaluator_detects_failure(answer_correct=True))
        rate = sum(detections) / len(detections)
        assert rate < 0.2

    def test_accuracy_improves_with_model_size(self):
        def accuracy(model):
            correct = 0
            for seed in range(300):
                oracle = make_oracle(model=model, seed=seed, difficulty=0.5)
                oracle.progress = oracle.solution_depth
                correct += oracle.judge_final_answer()
            return correct / 300

        assert accuracy("70b") > accuracy("8b")
