"""The engine's per-token decode path, reachable from tests only.

``LLMEngine`` has one decode path: each decode step plans a run of virtual
steps (``_plan_decode_chunk``) and replays it.  Inside
:func:`per_token_decode` every run is planned as its first step alone --
what the engine already does when a step preempted or a chunked prefill is
in flight -- so every decode token is its own simulated event.  Pricing a
run's first step does not depend on the run's length, so results must stay
bit-for-bit identical; tests compare against this path, and the
work-counter pins show what the fast path saves.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

from repro.llm import LLMEngine


def _first_step_only(self, start, step_times, decodes):
    return step_times[:1], [start + step_times[0]], {}


@contextlib.contextmanager
def per_token_decode() -> Iterator[None]:
    """Run every engine built or stepped inside the block one token per event."""
    with mock.patch.object(LLMEngine, "_plan_decode_chunk", _first_step_only):
        yield
