"""Request and result objects exchanged with the simulated LLM engine."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.llm.tokenizer import Prompt, SegmentKind, SyntheticTokenizer, TokenSpan

_request_counter = itertools.count()


def reset_request_ids() -> None:
    """Restart request-id numbering from zero.

    Request ids are drawn from a process-global counter, so two otherwise
    identical experiments run in the same process would number their
    requests differently.  ``run_experiment`` resets the counter at the
    start of every experiment so results are reproducible regardless of
    process history -- which is also what makes process-parallel study
    execution bit-for-bit identical to serial execution.
    """
    global _request_counter
    _request_counter = itertools.count()


class RequestState(str, Enum):
    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True, slots=True)
class SamplingParams:
    """Generation parameters.

    ``output_tokens`` is the number of tokens the simulated model will
    generate for this call (decided by the behaviour oracle); ``max_tokens``
    caps it, mirroring the real API knob.
    """

    output_tokens: int
    max_tokens: int = 4096
    temperature: float = 0.7

    @property
    def effective_output_tokens(self) -> int:
        return max(1, min(self.output_tokens, self.max_tokens))


@dataclass(slots=True)
class RequestTimings:
    """Timestamps and accumulated durations for one LLM request."""

    arrival: float = 0.0
    first_scheduled: Optional[float] = None
    first_token: Optional[float] = None
    finished: Optional[float] = None
    prefill_time: float = 0.0
    decode_time: float = 0.0

    @property
    def queue_time(self) -> float:
        if self.first_scheduled is None:
            return 0.0
        return max(0.0, self.first_scheduled - self.arrival)

    @property
    def e2e_latency(self) -> float:
        if self.finished is None:
            return 0.0
        return self.finished - self.arrival


class LLMRequest:
    """A single LLM inference call tracked by the engine.

    Its sizes are plain counters: the engine advances
    ``num_output_tokens`` by a step's tokens, or by a replayed chunk of a
    decode run at once, and the generated ids are produced from the count
    only where they are read (:attr:`output_token_ids`).
    """

    __slots__ = (
        "request_id",
        "prompt",
        "prompt_token_ids",
        "sampling",
        "metadata",
        "state",
        "timings",
        "num_prompt_tokens",
        "num_output_tokens",
        "target_output_tokens",
        "num_cached_tokens",
        "num_computed_tokens",
        "block_ids",
        "completion_event",
        "tokenizer",
        "prompt_hashes",
    )

    def __init__(
        self,
        prompt: Prompt,
        sampling: SamplingParams,
        arrival_time: float = 0.0,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.request_id: int = next(_request_counter)
        self.prompt = prompt
        self.prompt_token_ids: Tuple[int, ...] = prompt.token_ids
        self.sampling = sampling
        self.metadata: Dict[str, Any] = metadata or {}
        self.state = RequestState.WAITING
        self.timings = RequestTimings(arrival=arrival_time)

        self.num_prompt_tokens: int = len(self.prompt_token_ids)
        self.num_output_tokens: int = 0
        self.target_output_tokens: int = sampling.effective_output_tokens
        self.num_cached_tokens: int = 0
        # Prompt tokens whose KV entries exist (cached prefix + chunks
        # computed so far).  Only chunked prefill advances this in stages;
        # atomic prefill goes 0 -> num_prompt_tokens in one step.
        self.num_computed_tokens: int = 0
        self.block_ids: List[int] = []
        self.completion_event: Any = None  # set by the client/engine
        # The tokenizer the output ids are drawn from; set by the engine the
        # request is submitted to.
        self.tokenizer: Optional[SyntheticTokenizer] = None
        # Chained block hashes of the (immutable) prompt, set by the prefix
        # cache the request is admitted to on its first lookup, so admission
        # retries of a waiting prompt do not re-hash it.
        self.prompt_hashes: Optional[List[int]] = None

    # -- sizes --------------------------------------------------------------
    @property
    def context_length(self) -> int:
        return self.num_prompt_tokens + self.num_output_tokens

    @property
    def remaining_output_tokens(self) -> int:
        return max(0, self.target_output_tokens - self.num_output_tokens)

    # -- generated ids --------------------------------------------------------
    @property
    def output_stream(self) -> str:
        """The tokenizer stream the generated ids are the prefix of."""
        return f"output:{self.request_id}"

    @property
    def output_token_ids(self) -> Tuple[int, ...]:
        """The ``num_output_tokens`` ids generated so far, produced on read."""
        if not self.num_output_tokens:
            return ()
        return self.tokenizer.synthetic_tokens(self.output_stream, self.num_output_tokens)

    def to_result(self, output_token_ids: Optional[Tuple[int, ...]] = None) -> "LLMResult":
        """This request's outcome; ``output_token_ids`` if already produced."""
        counts = self.prompt.count_by_kind()
        if output_token_ids is None:
            output_token_ids = self.output_token_ids
        return LLMResult(
            request_id=self.request_id,
            prompt_tokens=self.num_prompt_tokens,
            cached_prompt_tokens=self.num_cached_tokens,
            output_tokens=self.num_output_tokens,
            output_token_ids=output_token_ids,
            prompt_tokens_by_kind={k: v for k, v in counts.items() if v},
            queue_time=self.timings.queue_time,
            prefill_time=self.timings.prefill_time,
            decode_time=self.timings.decode_time,
            e2e_latency=self.timings.e2e_latency,
            arrival_time=self.timings.arrival,
            finish_time=self.timings.finished or self.timings.arrival,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LLMRequest {self.request_id} {self.state.value} "
            f"prompt={self.num_prompt_tokens} out={self.num_output_tokens}"
            f"/{self.target_output_tokens}>"
        )


@dataclass(frozen=True)
class LLMResult:
    """Outcome of one LLM call, returned to the agent that issued it."""

    request_id: int
    prompt_tokens: int
    cached_prompt_tokens: int
    output_tokens: int
    output_token_ids: Tuple[int, ...]
    prompt_tokens_by_kind: Dict[SegmentKind, int]
    queue_time: float
    prefill_time: float
    decode_time: float
    e2e_latency: float
    arrival_time: float
    finish_time: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens

    def output_span(self) -> TokenSpan:
        """The generated tokens as an LLM-history span for the next prompt."""
        return TokenSpan(kind=SegmentKind.LLM_HISTORY, tokens=self.output_token_ids)
