"""Engine fidelity: what do chunked prefill and speculative decoding buy?

A single contended replica serves the agent-heavy Table IV mixture -- 70%
short chat turns, 30% ReAct agents whose retrieval-stuffed prompts are an
order of magnitude longer -- with the engine batch capped so prefills and
decodes genuinely share each step.  This example declares the question as
a :class:`~repro.api.StudySpec` sweeping two engine-fidelity knobs around
that base spec:

* ``chunk`` (the ``prefill_chunk_tokens`` field) -- atomic prefill (off)
  vs a 256- or 1024-token per-step budget, vLLM-style: prompt chunks are
  co-scheduled with running decodes instead of parking them,
* ``spec`` (the ``speculative`` field) -- speculative decoding off vs on
  (draft model at 10% of target cost, 4 drafted tokens per step, 70%
  per-position acceptance).

Every grid point serves the same arrivals at the same seed on the same
replica (equal replica-seconds), so any movement in chat tail latency,
head-of-line blocking (``prefill_hol_block_s``), or energy is
attributable to the engine knob alone.  The
:class:`~repro.api.StudyResult` answers the operator's question directly:
``pareto_frontier(cost="energy_wh_per_query", quality="p95_latency:chat")``
-- which engine features are worth their cost?

Expected read: chunked prefill zeroes out head-of-line blocking and cuts
chat p95 at identical replica-seconds -- the agent prompts stop parking
the chat decodes -- while speculation roughly halves latency but books
kilojoules of draft compute (``draft_energy_j``), an energy-for-latency
trade the frontier makes explicit.

Run with::

    python examples/engine_fidelity.py
"""

from __future__ import annotations

from repro.analysis import engine_fidelity_study


def main() -> None:
    study = engine_fidelity_study()
    print(study.format())
    print()

    print(study.format_frontier())
    print()

    advantage = study.chunking_advantage("256")
    print(
        f"chunked prefill (256-token budget, no speculation): "
        f"{advantage['chat_p95_s']:+.2f}s chat p95 and "
        f"{advantage['hol_s']:+.2f}s head-of-line blocking vs atomic prefill "
        f"({advantage['replica_s']:+.2f} replica-seconds)"
    )
    trade = study.speculation_tradeoff()
    print(
        f"speculative decoding (atomic prefill arm): "
        f"{trade['chat_p95_s']:+.2f}s chat p95 for "
        f"{trade['draft_j']:,.0f} J of draft compute "
        f"({trade['accepted']:.2f} draft tokens accepted per verify step)"
    )


if __name__ == "__main__":
    main()
