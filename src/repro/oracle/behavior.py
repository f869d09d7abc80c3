"""Per-task behaviour oracle driving agent trajectories.

Each agent run owns one :class:`TaskOracle`, seeded from the experiment seed,
the task id, and the agent configuration, so repeated runs of the same
experiment are bit-identical while different tasks/agents/configs explore
different trajectories.

The oracle exposes exactly the decisions a real LLM would have made that the
cost analysis depends on:

* whether an iteration made reasoning progress (:meth:`attempt_step`),
* how many tokens each generated message has (:meth:`sample_output_tokens`),
* how large/slow each tool observation is,
* whether the final answer is correct (:meth:`judge_final_answer`), and
* whether a self-evaluation step notices a wrong answer
  (:meth:`evaluator_detects_failure`), which is what gates Reflexion retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.oracle.accuracy import (
    answer_success_probability,
    step_success_probability,
)
from repro.oracle.calibration import (
    AgentProfile,
    BenchmarkProfile,
    ModelQuality,
)
from repro.sim.distributions import RandomStream


@dataclass(frozen=True)
class StepOutcome:
    """Result of one reasoning/acting iteration."""

    progressed: bool
    solved: bool
    progress: int
    solution_depth: int


class TaskOracle:
    """Stateful decision model for a single agent attempt at a single task."""

    #: output-length roles understood by :meth:`sample_output_tokens`.
    ROLES = ("thought", "answer", "cot", "reflection", "plan")

    def __init__(
        self,
        *,
        difficulty: float,
        solution_depth: int,
        benchmark: BenchmarkProfile,
        agent: AgentProfile,
        model: ModelQuality,
        num_few_shot: int,
        stream: RandomStream,
    ):
        if solution_depth < 1:
            raise ValueError("solution_depth must be >= 1")
        self.difficulty = max(0.0, min(1.0, difficulty))
        self.solution_depth = solution_depth
        self.benchmark = benchmark
        self.agent = agent
        self.model = model
        self.num_few_shot = num_few_shot
        self.stream = stream

        self.progress = 0
        self.reflection_round = 0
        self.steps_attempted = 0
        self.trials_started = 1
        # Latent per-task answer aptitude: whether this agent/model can answer
        # this task correctly is a property of the task, not an independent
        # coin flip per attempt -- retrying the same question does not help
        # unless the success *probability* itself improves (more reflections,
        # more candidate paths, a larger model).
        self._answer_latent = self.stream.random()

    # -- state -------------------------------------------------------------
    @property
    def solved(self) -> bool:
        return self.progress >= self.solution_depth

    def step_probability(self, num_candidates: int = 1) -> float:
        return step_success_probability(
            benchmark=self.benchmark,
            agent=self.agent,
            model=self.model,
            difficulty=self.difficulty,
            num_few_shot=self.num_few_shot,
            reflection_round=self.reflection_round,
            num_candidates=num_candidates,
        )

    def answer_probability(self, num_candidates: int = 1) -> float:
        return answer_success_probability(
            benchmark=self.benchmark,
            agent=self.agent,
            model=self.model,
            difficulty=self.difficulty,
            solved=self.solved,
            num_candidates=num_candidates,
        )

    # -- trajectory decisions ------------------------------------------------
    def attempt_step(self, num_candidates: int = 1) -> StepOutcome:
        """One reasoning/acting iteration; may advance task progress."""
        self.steps_attempted += 1
        progressed = self.stream.random() < self.step_probability(num_candidates)
        if progressed and not self.solved:
            self.progress += 1
        return StepOutcome(
            progressed=progressed,
            solved=self.solved,
            progress=self.progress,
            solution_depth=self.solution_depth,
        )

    def judge_final_answer(self, num_candidates: int = 1) -> bool:
        """Whether the produced final answer is actually correct."""
        return self._answer_latent < self.answer_probability(num_candidates)

    def evaluator_detects_failure(self, answer_correct: bool) -> bool:
        """Whether a self-evaluation (internal reward) flags the attempt as failed.

        Wrong answers are detected often but not always; correct answers are
        occasionally second-guessed, which is why reflective agents sometimes
        spend compute even when they were already right.
        """
        if answer_correct:
            return self.stream.random() < 0.08
        return self.stream.random() < 0.92

    def note_reflection(self) -> None:
        """Record a completed reflection (raises later step probabilities)."""
        self.reflection_round += 1

    def reset_trial(self) -> None:
        """Start a fresh Reflexion-style trial on the same task."""
        self.progress = 0
        self.trials_started += 1

    def score(self, answer_correct: bool) -> float:
        """Task score: exact-match for most benchmarks, partial credit on WebShop."""
        if answer_correct:
            return 1.0
        if self.solved:
            return self.benchmark.partial_score
        return 0.0

    # -- workload-shape samples -----------------------------------------------
    def sample_output_tokens(self, role: str) -> int:
        samplers = {
            "thought": self.benchmark.thought_tokens,
            "answer": self.benchmark.answer_tokens,
            "cot": self.benchmark.cot_output_tokens,
            "reflection": self.benchmark.reflection_tokens,
            "plan": self.benchmark.plan_tokens,
        }
        if role not in samplers:
            raise KeyError(f"unknown output role: {role!r} (known: {self.ROLES})")
        return max(1, round(samplers[role].sample(self.stream)))


def make_oracle(
    *,
    task,
    benchmark: BenchmarkProfile,
    agent: AgentProfile,
    model: ModelQuality,
    num_few_shot: int,
    seed_stream: RandomStream,
    attempt: int = 0,
) -> TaskOracle:
    """Build a :class:`TaskOracle` for ``task`` (anything with ``task_id``,
    ``difficulty`` and ``solution_depth`` attributes)."""
    stream = seed_stream.substream(
        f"oracle/{benchmark.name}/{agent.name}/{task.task_id}/{attempt}"
    )
    return TaskOracle(
        difficulty=task.difficulty,
        solution_depth=task.solution_depth,
        benchmark=benchmark,
        agent=agent,
        model=model,
        num_few_shot=num_few_shot,
        stream=stream,
    )
