"""Multi-turn sessions: conversations whose turns share a growing KV prefix.

The serving stack historically modelled every arrival as a single-shot
request, so the economics the paper cares about -- prefill cost collapsing
on warm prefix-cache hits, admission decisions that respect an in-progress
interaction -- never materialised across a conversation.  This module
introduces the session vocabulary (grounded in fairserve's
``Interaction``/``InteractionStage`` model):

* :class:`SessionSpec` -- the frozen, declarative description of a
  multi-turn conversation shape: ``turns`` per session, ``followup_tokens``
  of fresh user prompt per later turn, and a think-time distribution
  (``think_time_s`` mean, ``think_time`` = ``"exponential"`` or
  ``"constant"``) between a turn's completion and the next turn's arrival.
* :class:`SessionState` -- one live conversation inside the serving driver:
  its identity, its accumulated context (the previous turns' prompt +
  output token spans, i.e. exactly the token sequence the prefix cache
  registered when the previous turn's KV blocks were freed), and per-turn
  accounting.
* :class:`SessionStats` -- the aggregate report attached to
  :class:`~repro.serving.server.ServingResult`: session/turn counts and the
  cross-turn prefix-cache hit rate (cached prompt tokens on turns >= 2
  divided by prompt tokens offered on turns >= 2 -- the fraction of
  conversation re-prefill the cache absorbed).

Sessions attach to :class:`~repro.api.spec.ArrivalSpec` (every class) or
per :class:`~repro.api.spec.WeightedWorkload` (that class only); the
arrival plan is unchanged -- each planned arrival becomes a session's
*first* turn, and later turns re-enter the cluster closed-loop after the
think-time gap.  Think times draw from dedicated per-session substreams,
so sessionless specs remain bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

#: Think-time distributions a session may declare.
THINK_TIME_DISTRIBUTIONS: Tuple[str, ...] = ("exponential", "constant")


@dataclass(frozen=True)
class SessionSpec:
    """Declarative description of a multi-turn conversation shape.

    ``turns`` is the number of LLM-serving round trips per session
    (``1`` degenerates to the single-shot model).  Each turn after the
    first carries the full prior conversation (previous prompts + model
    outputs) as a shared prefix plus ``followup_tokens`` of fresh user
    input, and arrives ``think_time_s``-distributed seconds after the
    previous turn completes (``think_time="exponential"`` draws from an
    exponential with that mean; ``"constant"`` waits exactly that long).
    Serialises through ``dataclasses.asdict`` like every other spec type.
    """

    turns: int = 4
    followup_tokens: int = 64
    think_time_s: float = 5.0
    think_time: str = "exponential"

    def __post_init__(self) -> None:
        if self.turns < 1:
            raise ValueError("session turns must be >= 1")
        if self.followup_tokens < 1:
            raise ValueError("session followup_tokens must be >= 1")
        if self.think_time_s < 0:
            raise ValueError("session think_time_s must be >= 0")
        if self.think_time not in THINK_TIME_DISTRIBUTIONS:
            raise ValueError(
                f"session think_time must be one of {THINK_TIME_DISTRIBUTIONS}, "
                f"got {self.think_time!r}"
            )


@dataclass
class SessionState:
    """One live conversation inside the serving driver.

    ``context`` accumulates the token spans of every completed turn
    (prompt spans followed by the turn's output span) -- by construction
    the exact token sequence whose full KV blocks the engine registered in
    its prefix cache when the turn's sequence was freed, so the next
    turn's prompt hits that cache block-for-block on the replica that
    served it.
    """

    session_id: str
    spec: SessionSpec
    task: Any
    label: Optional[str]
    tenant: Any
    #: Accumulated conversation token spans (grows by one turn at a time).
    context: List[Any] = field(default_factory=list)
    #: Turns completed so far.
    turns_done: int = 0

    @property
    def next_turn(self) -> int:
        """1-based index of the turn about to run."""
        return self.turns_done + 1

    @property
    def finished(self) -> bool:
        return self.turns_done >= self.spec.turns


@dataclass
class SessionStats:
    """Aggregate session accounting for one serving run.

    Cross-turn figures cover turns >= 2 only: the first turn of a session
    has no conversation prefix to reuse, so including it would dilute the
    signal the study cares about (how much *re*-prefill the cache absorbs).
    """

    #: Sessions started (first turn admitted).
    num_sessions: int = 0
    #: Sessions whose final turn completed.
    completed_sessions: int = 0
    #: Turns completed across all sessions.
    total_turns: int = 0
    #: Prompt tokens offered on turns >= 2.
    cross_turn_prompt_tokens: int = 0
    #: Prompt tokens served from the prefix cache on turns >= 2.
    cross_turn_cached_tokens: int = 0
    #: Session-affinity invalidations (spill or replica shrink re-pinned
    #: a session away from the replica holding its warm prefix).
    affinity_invalidations: int = 0

    @property
    def cross_turn_hit_rate(self) -> float:
        """Fraction of turn->turn re-prefill served from the prefix cache."""
        if self.cross_turn_prompt_tokens == 0:
            return 0.0
        return self.cross_turn_cached_tokens / self.cross_turn_prompt_tokens

    @property
    def mean_turns_per_session(self) -> float:
        """Turns served per started session (0.0 with no sessions)."""
        if self.num_sessions == 0:
            return 0.0
        return self.total_turns / self.num_sessions

    def as_dict(self) -> dict:
        """Flat dict form for summaries and JSON dumps."""
        return {
            "num_sessions": self.num_sessions,
            "completed_sessions": self.completed_sessions,
            "total_turns": self.total_turns,
            "cross_turn_prompt_tokens": self.cross_turn_prompt_tokens,
            "cross_turn_cached_tokens": self.cross_turn_cached_tokens,
            "cross_turn_hit_rate": self.cross_turn_hit_rate,
            "affinity_invalidations": self.affinity_invalidations,
        }
