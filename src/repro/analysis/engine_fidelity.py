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
``class_p95:chat`` or energy is attributable to the engine knob.

The headline read: chunked prefill removes head-of-line blocking --
``prefill_hol_block_s`` (seconds decodes spent parked behind atomic prefill
steps) drops to zero and chat p95 falls at equal replica-seconds -- while
speculation trades draft energy (``draft_energy_j``) for decode latency.
The frontier query ``pareto_frontier(cost="energy_wh_per_query",
quality="class_p95:chat")`` shows which combinations are worth paying for.
``examples/engine_fidelity.py`` prints the grid and the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.reporting import format_table
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    ParetoPoint,
    SpeculativeSpec,
    StudyAxis,
    StudyResult,
    StudySpec,
    WeightedWorkload,
    run_study,
)

#: Metric columns the engine-fidelity tables report.
ENGINE_FIDELITY_METRICS: Tuple[Tuple[str, object], ...] = (
    ("chat_p95_s", "class_p95:chat"),
    ("agent_p95_s", "class_p95:agent"),
    ("qps", "throughput_qps"),
    ("hol_s", "prefill_hol_block_s"),
    ("accepted", "mean_accepted_per_step"),
    ("draft_j", "draft_energy_j"),
    ("wh_per_q", "energy_wh_per_query"),
    ("replica_s", "replica_seconds"),
)


@dataclass
class EngineFidelityStudyResult:
    """The executed chunk-budget x speculation grid plus its Pareto views."""

    result: StudyResult

    def rows(self) -> List[Dict[str, object]]:
        return self.result.tabulate(ENGINE_FIDELITY_METRICS)

    def format(self) -> str:
        return self.result.format(
            "Engine fidelity: prefill chunk budget x speculative decoding",
            ENGINE_FIDELITY_METRICS,
        )

    def frontier(self, **labels: str) -> List[ParetoPoint]:
        """Energy per query vs chat tail latency (optionally sliced)."""
        view = self.result if not labels else self.result.slice(**labels)
        return view.pareto_frontier(
            cost="energy_wh_per_query",
            quality="class_p95:chat",
        )

    def format_frontier(self, **labels: str) -> str:
        rows = [
            {
                "chunk": entry.point.labels.get("chunk", "?"),
                "spec": entry.point.labels.get("spec", "?"),
                "wh_per_q": entry.cost,
                "chat_p95_s": entry.quality,
                "hol_s": entry.point.metric("prefill_hol_block_s"),
                "draft_j": entry.point.metric("draft_energy_j"),
            }
            for entry in self.frontier(**labels)
        ]
        return format_table(
            rows, "Pareto frontier (energy per query vs chat tail latency)"
        )

    def chat_p95(self, chunk: str, spec: str) -> float:
        """Chat p95 latency of one grid cell."""
        (point,) = self.result.slice(chunk=chunk, spec=spec).points
        return point.metric("class_p95:chat")

    def hol_block_s(self, chunk: str, spec: str) -> float:
        """Prefill head-of-line blocking seconds of one grid cell."""
        (point,) = self.result.slice(chunk=chunk, spec=spec).points
        return point.metric("prefill_hol_block_s")

    def chunking_advantage(self, chunk: str, spec: str = "off") -> Dict[str, float]:
        """Chunked minus atomic prefill, same speculation arm, same arrivals.

        Both cells pay identical replica-seconds (fixed fleet, same
        measured window), so a negative ``chat_p95_s`` is a pure
        engine-fidelity win: slicing the agent prompts unblocked the chat
        decodes without buying any extra hardware.
        """
        chunked = self.result.slice(chunk=chunk, spec=spec)
        atomic = self.result.slice(chunk="off", spec=spec)
        (chunked_point,) = chunked.points
        (atomic_point,) = atomic.points
        return {
            "chat_p95_s": (
                chunked_point.metric("class_p95:chat")
                - atomic_point.metric("class_p95:chat")
            ),
            "hol_s": (
                chunked_point.metric("prefill_hol_block_s")
                - atomic_point.metric("prefill_hol_block_s")
            ),
            "replica_s": (
                chunked_point.metric("replica_seconds")
                - atomic_point.metric("replica_seconds")
            ),
        }

    def speculation_tradeoff(self, chunk: str = "off") -> Dict[str, float]:
        """Speculation-on minus speculation-off, same chunking arm.

        The expected shape: negative latency deltas (accepted draft tokens
        compress the decode phase) bought with a positive ``draft_j``
        (the draft model's extra compute is not free energy-wise).
        """
        on = self.result.slice(chunk=chunk, spec="on")
        off = self.result.slice(chunk=chunk, spec="off")
        (on_point,) = on.points
        (off_point,) = off.points
        return {
            "chat_p95_s": (
                on_point.metric("class_p95:chat")
                - off_point.metric("class_p95:chat")
            ),
            "p95_s": (
                on_point.metric("p95_latency") - off_point.metric("p95_latency")
            ),
            "draft_j": on_point.metric("draft_energy_j"),
            "accepted": on_point.metric("mean_accepted_per_step"),
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
        workloads=(
            WeightedWorkload(
                agent="chatbot", workload="sharegpt", weight=chat_weight, name="chat"
            ),
            WeightedWorkload(
                agent="react", workload="hotpotqa", weight=agent_weight, name="agent"
            ),
        ),
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
    return EngineFidelityStudyResult(result=run_study(study, parallel=parallel))
