"""Engine fidelity: chunked prefill x speculative decoding, frontier-queried.

The simulator's default engine executes every prompt as one atomic prefill
step and emits exactly one decode token per step.  Real engines do neither:
vLLM-style chunked prefill slices each prompt into per-iteration token
budgets and co-schedules the chunks with running decodes, and speculative
decoding drafts several tokens per verify step and keeps the accepted
prefix.  Both knobs move the latency/throughput/energy operating point, and
both matter most on exactly the agent-heavy mixtures this repo studies:
long retrieval-stuffed ReAct prompts are the prefills that chat decodes get
stuck behind.

This study sweeps :attr:`~repro.api.ExperimentSpec.prefill_chunk_tokens`
(off plus a small/large per-step budget) against
:attr:`~repro.api.ExperimentSpec.speculative` (off / on) on the contended
Table IV-style chat+agent mixture used by the fairness studies.  Every grid
point serves the same arrivals on the same single replica at the same seed,
so replica-seconds are equal across the grid and any movement in
``p95_latency:chat`` or energy is attributable to the engine knob.

The headline read: chunked prefill removes head-of-line blocking --
``prefill_hol_block_s`` (seconds decodes spent parked behind atomic prefill
steps) drops to zero and chat p95 falls at equal replica-seconds -- while
speculation trades draft energy (``draft_energy_j``) for decode latency.
The frontier query ``pareto_frontier(cost="energy_wh_per_query",
quality="p95_latency:chat")`` shows which combinations are worth paying for.
``examples/engine_fidelity.py`` prints the grid and the frontier.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.agents import AgentConfig
from repro.analysis.study_view import FrontierView, chat_agent_mixture
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    SpeculativeSpec,
    StudyAxis,
    StudySpec,
    run_study,
)


class EngineFidelityStudyResult(FrontierView):
    """The executed chunk-budget x speculation grid: energy vs chat p95."""

    METRICS = (
        ("chat_p95_s", "p95_latency:chat"),
        ("agent_p95_s", "p95_latency:agent"),
        ("qps", "throughput_qps"),
        ("hol_s", "prefill_hol_block_s"),
        ("accepted", "mean_accepted_per_step"),
        ("draft_j", "draft_energy_j"),
        ("wh_per_q", "energy_wh_per_query"),
        ("replica_s", "replica_seconds"),
    )
    COST, QUALITY = "wh_per_q", "chat_p95_s"
    FRONTIER_AXES = ("chunk", "spec")
    FRONTIER_EXTRAS = ("hol_s", "draft_j")
    FRONTIER_TITLE = "Pareto frontier (energy per query vs chat tail latency)"

    def chunking_advantage(self, chunk: str, spec: str = "off") -> Dict[str, float]:
        """Chunked minus atomic prefill, same speculation arm, same arrivals.

        Both cells pay identical replica-seconds (fixed fleet, same
        measured window), so a negative ``chat_p95_s`` is a pure
        engine-fidelity win: slicing the agent prompts unblocked the chat
        decodes without buying any extra hardware.
        """
        chunked = self.result.at(chunk=chunk, spec=spec)
        atomic = self.result.at(chunk="off", spec=spec)
        return {
            column: chunked.metric(name) - atomic.metric(name)
            for column, name in (
                ("chat_p95_s", "p95_latency:chat"),
                ("hol_s", "prefill_hol_block_s"),
                ("replica_s", "replica_seconds"),
            )
        }

    def speculation_tradeoff(self, chunk: str = "off") -> Dict[str, float]:
        """Speculation-on minus speculation-off, same chunking arm.

        The expected shape: negative latency deltas (accepted draft tokens
        compress the decode phase) bought with a positive ``draft_j``
        (the draft model's extra compute is not free energy-wise).
        """
        on = self.result.at(chunk=chunk, spec="on")
        off = self.result.at(chunk=chunk, spec="off")
        return {
            "chat_p95_s": on.metric("p95_latency:chat") - off.metric("p95_latency:chat"),
            "p95_s": on.metric("p95_latency") - off.metric("p95_latency"),
            "draft_j": on.metric("draft_energy_j"),
            "accepted": on.metric("mean_accepted_per_step"),
        }


def engine_fidelity_study(
    qps: float = 8.0,
    num_requests: int = 32,
    chat_weight: float = 0.7,
    agent_weight: float = 0.3,
    chunk_values: Sequence[Optional[int]] = (None, 256, 1024),
    speculative: Optional[SpeculativeSpec] = None,
    max_num_seqs: int = 4,
    task_pool_size: int = 10,
    seed: int = 0,
    parallel: int = 1,
) -> EngineFidelityStudyResult:
    """Sweep prefill chunk budget x speculative decoding on the agent mixture.

    Same contended chat+agent mixture as :func:`repro.analysis.fairness_study`
    (``max_num_seqs`` caps the batch so long agent prefills and short chat
    decodes genuinely share each engine step), served on one replica at one
    seed, so every grid point pays the same replica-seconds and movement is
    attributable to the engine knob.

    ``chunk_values`` should include ``None`` (atomic prefill) as the
    baseline arm; ``speculative`` defaults to a
    :class:`~repro.api.SpeculativeSpec` with its stock draft ratio and
    acceptance rate.

    ``parallel`` fans the grid points out over a process pool (see
    :func:`repro.api.run_study`); results are bit-identical to serial runs.
    """
    if speculative is None:
        speculative = SpeculativeSpec()
    base = ExperimentSpec(
        workloads=chat_agent_mixture(chat_weight, agent_weight),
        agent_config=AgentConfig(max_iterations=4),
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps,
            num_requests=num_requests,
            task_pool_size=task_pool_size,
        ),
        max_num_seqs=max_num_seqs,
        seed=seed,
    )
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(
                name="chunk",
                field="prefill_chunk_tokens",
                values=tuple(chunk_values),
                labels=tuple(
                    "off" if value is None else str(value) for value in chunk_values
                ),
            ),
            StudyAxis(
                name="spec",
                field="speculative",
                values=(None, speculative),
                labels=("off", "on"),
            ),
        ),
        name="engine-fidelity",
    )
    return EngineFidelityStudyResult(
        result=run_study(study, parallel=parallel),
        title="Engine fidelity: prefill chunk budget x speculative decoding",
    )
