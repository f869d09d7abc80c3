"""OpenAI-style client facade over the simulated engine.

Agent code never touches the engine directly; it builds a :class:`Prompt`
(labelled token spans) and calls :meth:`LLMClient.generate`, yielding the
returned event inside its simulation process.  The event fires with an
:class:`LLMResult` once the engine finishes the request, exactly like an
``await client.completions.create(...)`` against a real vLLM server.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.llm.engine import LLMEngine
from repro.llm.request import LLMRequest, LLMResult, SamplingParams
from repro.llm.tokenizer import Prompt, SyntheticTokenizer
from repro.sim import Environment, Event


class LLMClient:
    """Thin request-construction layer shared by all agents and workers."""

    def __init__(self, env: Environment, engine: LLMEngine):
        self.env = env
        self.engine = engine
        self.tokenizer: SyntheticTokenizer = engine.tokenizer
        self.calls_issued: int = 0

    @property
    def model_name(self) -> str:
        return self.engine.model.name

    def generate(
        self,
        prompt: Prompt,
        output_tokens: int,
        max_tokens: int = 4096,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Event:
        """Submit one LLM call; returns the completion event (value: LLMResult)."""
        if len(prompt) == 0:
            raise ValueError("prompt must contain at least one token")
        sampling = SamplingParams(output_tokens=output_tokens, max_tokens=max_tokens)
        request = LLMRequest(
            prompt=prompt,
            sampling=sampling,
            arrival_time=self.env.now,
            metadata=metadata,
        )
        self.calls_issued += 1
        return self.engine.submit(request)
