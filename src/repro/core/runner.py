"""Single-request characterization results (paper Section IV-A/IV-B setup).

The paper first characterises agents while serving one request at a time:
an :class:`~repro.api.spec.ExperimentSpec` with a ``single`` arrival process
runs the sampled tasks sequentially through the chosen agent, and
:func:`repro.api.run_experiment` records, for every request, the agent trace
plus the engine-side observations over the request's time window (GPU runtime
breakdown, KV-cache memory, energy) as a :class:`CharacterizationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.agents import AgentConfig, AgentRunResult
from repro.core.metrics import (
    GpuRuntimeBreakdown,
    LatencyBreakdown,
    LatencyStats,
    TokenBreakdown,
    mean,
)
from repro.llm.energy import PowerState


@dataclass(frozen=True)
class RequestObservation:
    """One request's agent trace plus engine-side measurements."""

    result: AgentRunResult
    energy_wh: float
    energy_joules_by_state: Dict[PowerState, float]
    gpu: GpuRuntimeBreakdown
    kv_average_bytes: float
    kv_max_bytes: float

    @property
    def latency(self) -> float:
        return self.result.e2e_latency

    @property
    def latency_breakdown(self) -> LatencyBreakdown:
        return LatencyBreakdown.from_result(self.result)

    @property
    def token_breakdown(self) -> TokenBreakdown:
        return TokenBreakdown.from_result(self.result)


@dataclass
class CharacterizationResult:
    """Aggregate of a single-request characterization experiment."""

    agent: str
    benchmark: str
    model: str
    config: AgentConfig
    prefix_caching: bool
    observations: List[RequestObservation] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.observations)

    @property
    def latencies(self) -> List[float]:
        return [obs.latency for obs in self.observations]

    @property
    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_values(self.latencies)

    @property
    def mean_latency(self) -> float:
        return mean(self.latencies)

    @property
    def accuracy(self) -> float:
        if not self.observations:
            return 0.0
        return mean([1.0 if obs.result.answer_correct else 0.0 for obs in self.observations])

    @property
    def mean_score(self) -> float:
        if not self.observations:
            return 0.0
        return mean([obs.result.score for obs in self.observations])

    @property
    def mean_llm_calls(self) -> float:
        return mean([obs.result.num_llm_calls for obs in self.observations])

    @property
    def mean_tool_calls(self) -> float:
        return mean([obs.result.num_tool_calls for obs in self.observations])

    @property
    def mean_energy_wh(self) -> float:
        return mean([obs.energy_wh for obs in self.observations])

    @property
    def mean_total_tokens(self) -> float:
        return mean([obs.result.total_tokens for obs in self.observations])

    @property
    def mean_prefill_time(self) -> float:
        return mean(
            [sum(r.prefill_time for r in obs.result.llm_calls) for obs in self.observations]
        )

    @property
    def mean_decode_time(self) -> float:
        return mean(
            [sum(r.decode_time for r in obs.result.llm_calls) for obs in self.observations]
        )

    @property
    def mean_llm_inference_latency(self) -> float:
        """Average summed LLM-call latency per request (paper Fig. 9's metric)."""
        return mean(
            [sum(r.e2e_latency for r in obs.result.llm_calls) for obs in self.observations]
        )

    @property
    def mean_kv_bytes(self) -> float:
        return mean([obs.kv_average_bytes for obs in self.observations])

    @property
    def max_kv_bytes(self) -> float:
        if not self.observations:
            return 0.0
        return max(obs.kv_max_bytes for obs in self.observations)

    def latency_breakdown(self) -> LatencyBreakdown:
        return LatencyBreakdown.average(obs.latency_breakdown for obs in self.observations)

    def token_breakdown(self) -> TokenBreakdown:
        return TokenBreakdown.average(obs.token_breakdown for obs in self.observations)

    def gpu_breakdown(self) -> GpuRuntimeBreakdown:
        return GpuRuntimeBreakdown.average(obs.gpu for obs in self.observations)
