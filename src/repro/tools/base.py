"""Tool abstractions shared by all simulated tool environments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer, TokenSpan
from repro.sim import Environment
from repro.sim.distributions import LogNormalSampler, RandomStream


@dataclass(frozen=True)
class ToolAction:
    """A structured tool invocation command emitted by the agent core."""

    tool: str
    action: str
    argument: str = ""

    def __str__(self) -> str:
        return f"{self.action}[{self.argument}]"


@dataclass(frozen=True)
class ToolResult:
    """Outcome of a tool invocation."""

    tool: str
    action: str
    argument: str
    observation_text: str
    observation_tokens: int
    observation_span: TokenSpan
    latency: float
    success: bool
    used_gpu: bool = False
    data: Any = None


@dataclass(frozen=True)
class ToolCallRecord:
    """Timing record of one tool call, kept in the agent trace."""

    tool: str
    action: str
    argument: str
    start: float
    end: float
    observation_tokens: int
    success: bool
    used_gpu: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


class BaseTool:
    """Common machinery for simulated tools.

    Concrete tools implement :meth:`_execute`, returning the observation text
    and optional extra data; the base class samples the call latency, advances
    simulated time, and converts the observation into a tool-history token
    span for the agent's next prompt.
    """

    name = "tool"
    uses_gpu = False

    def __init__(
        self,
        env: Environment,
        tokenizer: SyntheticTokenizer,
        latency_sampler: LogNormalSampler,
        stream: RandomStream,
    ):
        self.env = env
        self.tokenizer = tokenizer
        self.latency_sampler = latency_sampler
        self.stream = stream
        self.call_count = 0

    # -- subclass hook ------------------------------------------------------
    def _execute(self, action: ToolAction) -> tuple[str, bool, Any]:
        """Return ``(observation_text, success, data)`` for an action."""
        raise NotImplementedError

    def _sample_latency(self, action: ToolAction) -> float:
        return max(0.0, self.latency_sampler.sample(self.stream))

    # -- invocation -----------------------------------------------------------
    def invoke(self, action: ToolAction):
        """Simulation process performing one tool call; returns a ToolResult."""
        self.call_count += 1
        start = self.env.now
        observation_text, success, data = self._execute(action)
        latency = self._sample_latency(action)
        if latency > 0:
            yield self.env.timeout(latency)
        span = self.tokenizer.text_span(SegmentKind.TOOL_HISTORY, observation_text)
        return ToolResult(
            tool=self.name,
            action=action.action,
            argument=action.argument,
            observation_text=observation_text,
            observation_tokens=len(span),
            observation_span=span,
            latency=self.env.now - start,
            success=success,
            used_gpu=self.uses_gpu,
            data=data,
        )


class ToolSet:
    """The collection of tools available to an agent for one benchmark."""

    def __init__(self, tools: Iterable[BaseTool]):
        self._tools: Dict[str, BaseTool] = {tool.name: tool for tool in tools}
        if not self._tools:
            raise ValueError("a ToolSet needs at least one tool")

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def __iter__(self):
        return iter(self._tools.values())

    def __len__(self) -> int:
        return len(self._tools)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._tools)

    def get(self, name: str) -> BaseTool:
        if name not in self._tools:
            raise KeyError(f"unknown tool {name!r}; available: {self.names}")
        return self._tools[name]

    def call(self, action: ToolAction):
        """Dispatch ``action`` to the owning tool.

        Returns the tool's invocation generator; agents either drive it
        inline (``result = yield from tools.call(action)``) or wrap it in a
        process for concurrent execution (``env.process(tools.call(action))``).
        """
        return self.get(action.tool).invoke(action)
