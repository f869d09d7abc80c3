"""Agent configuration and capability descriptors."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict


@dataclass(frozen=True)
class AgentCapabilities:
    """Capability matrix row (paper Table I)."""

    reasoning: bool = True
    tool_use: bool = False
    reflection: bool = False
    tree_search: bool = False
    structured_planning: bool = False

    def as_row(self) -> Dict[str, str]:
        """O/X row formatting used by the Table I reproduction."""
        def mark(flag: bool) -> str:
            return "O" if flag else "X"

        return {
            "Reasoning": mark(self.reasoning),
            "Tool Use": mark(self.tool_use),
            "Reflection": mark(self.reflection),
            "Tree Search": mark(self.tree_search),
            "Structured Planning": mark(self.structured_planning),
        }


@dataclass(frozen=True)
class AgentConfig:
    """Test-time scaling and prompting knobs shared by all agents.

    The fields map onto the design-space dimensions the paper sweeps:

    * ``max_iterations`` -- the per-trial reasoning/acting budget (Fig. 14).
    * ``num_few_shot`` -- in-context examples in the prompt (Fig. 15).
    * ``max_trials`` -- Reflexion's sequential-scaling knob: how many times the
      agent may retry the task with accumulated reflections (Fig. 16a).
    * ``max_expansions`` -- LATS's sequential-scaling knob: tree-search
      iterations (Fig. 16b).
    * ``num_children`` -- LATS's parallel-scaling knob: children sampled per
      expansion, each a concurrent LLM call (Fig. 16c).
    * ``replan_rounds`` / ``tasks_per_wave`` -- LLMCompiler plan/execute rounds
      and the number of tool calls emitted per planner wave.
    """

    max_iterations: int = 10
    num_few_shot: int = 2
    max_trials: int = 3
    num_children: int = 5
    max_expansions: int = 10
    replan_rounds: int = 3
    tasks_per_wave: int = 3
    max_output_tokens: int = 2048

    def __post_init__(self) -> None:
        for field_name in (
            "max_iterations",
            "max_trials",
            "num_children",
            "max_expansions",
            "replan_rounds",
            "tasks_per_wave",
            "max_output_tokens",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.num_few_shot < 0:
            raise ValueError("num_few_shot must be >= 0")

    def with_overrides(self, **overrides: Any) -> "AgentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def describe(self) -> str:
        return (
            f"iters={self.max_iterations} fewshot={self.num_few_shot} "
            f"trials={self.max_trials} children={self.num_children} "
            f"expansions={self.max_expansions}"
        )
