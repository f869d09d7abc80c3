"""Speculative decoding model: draft acceptance -> effective decode speedup.

Real speculative decoding (vLLM's ``SpeculativeConfig``) runs a small draft
model ahead of the target model: the draft proposes ``num_speculative_tokens``
tokens, the target verifies all of them in one forward pass, and the leading
run of *accepted* tokens (plus the target's own bonus token) is emitted.  The
simulator does not model token content, so fidelity reduces to two questions
the roofline can answer:

* **Latency** -- one speculative step emits ``accepted + 1`` tokens for the
  price of one target verify pass plus ``num_speculative_tokens`` draft
  passes, each costing ``draft_ratio`` of a target decode step.  High
  acceptance amortises the verify pass over several tokens; low acceptance
  pays the draft overhead for nothing.
* **Energy** -- the draft model's compute is extra work the non-speculative
  engine never does.  Draft dwell time is metered under its own power state
  (:attr:`~repro.llm.energy.PowerState.DRAFT`) so experiments can report the
  draft energy bill (``draft_energy_j``) separately from target decode.

Acceptance is a per-position Bernoulli draw (the standard modelling
assumption, e.g. the leviathan-style expected speedup
``(1 - a^(k+1)) / (1 - a)``): position ``i`` of a draft window is accepted
with probability ``acceptance``, and the first rejection discards the rest
of the window.  Draws come from a dedicated per-request
:class:`~repro.sim.RandomStream` substream keyed by the request id, so

* engines with ``speculative=None`` draw nothing and stay bit-for-bit
  identical to the pre-speculative engine, and
* the same seed reproduces the same acceptance sequence regardless of batch
  composition or scheduling order (pinned in
  ``tests/test_engine_fidelity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import RandomStream


@dataclass(frozen=True)
class SpeculativeSpec:
    """Declarative configuration of the speculative-decoding model.

    ``draft_ratio`` is the cost of one draft-model forward pass relative to
    one target decode step (0.1 ~= an 8B target with a ~1B draft);
    ``num_speculative_tokens`` is the draft window ``k`` proposed per step;
    ``acceptance`` is the per-position probability a drafted token survives
    target verification.  ``seed`` isolates the acceptance substream (the
    experiment builder leaves it at 0 so sweeping other spec fields never
    perturbs acceptance draws).  Serialises through ``dataclasses.asdict``
    like every other spec type.
    """

    draft_ratio: float = 0.1
    num_speculative_tokens: int = 4
    acceptance: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.draft_ratio < 1:
            raise ValueError("speculative draft_ratio must be in (0, 1)")
        if self.num_speculative_tokens < 1:
            raise ValueError("speculative num_speculative_tokens must be >= 1")
        if not 0 <= self.acceptance <= 1:
            raise ValueError("speculative acceptance must be in [0, 1]")

    def expected_tokens_per_step(self) -> float:
        """Mean tokens emitted per speculative step (accepted run + bonus)."""
        a = self.acceptance
        k = self.num_speculative_tokens
        if a >= 1.0:
            return float(k + 1)
        # E[min(Geometric(1-a), k)] + 1 = sum_{i=1..k} a^i + 1.
        return (a * (1.0 - a**k)) / (1.0 - a) + 1.0

    def acceptance_stream(self, request_id: int) -> RandomStream:
        """The dedicated substream feeding one request's acceptance draws.

        Keyed by request id (not by batch position or step index) so the
        sequence of draws a request sees is independent of what else is
        running -- the determinism contract the engine-fidelity tests pin.
        """
        return RandomStream(self.seed, f"speculative/request:{request_id}")

    def draw_accepted(self, stream: RandomStream) -> int:
        """Accepted draft tokens for one step: leading-run Bernoulli draws.

        Consumes exactly one uniform per drafted position up to the first
        rejection (the positions after a rejection are discarded unverified,
        so they draw nothing) -- mirroring how a real verifier stops at the
        first mismatch.
        """
        accepted = 0
        for _ in range(self.num_speculative_tokens):
            if stream.random() >= self.acceptance:
                break
            accepted += 1
        return accepted
