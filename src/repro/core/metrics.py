"""Request-level metrics mirroring the paper's characterization dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.agents.base import AgentRunResult
from repro.core.intervals import intersect, merge_intervals, total_length
from repro.llm.tokenizer import SegmentKind


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0.0 for empty input."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be within [0, 100]")
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(data[int(rank)])
    fraction = rank - low
    return float(data[low] * (1 - fraction) + data[high] * fraction)


def mean(values: Sequence[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


@dataclass(frozen=True)
class LatencyBreakdown:
    """Wall-clock decomposition of one agent request (paper Fig. 5)."""

    llm_time: float
    tool_time: float
    overlap_time: float
    other_time: float
    total: float

    @property
    def fractions(self) -> Dict[str, float]:
        if self.total <= 0:
            return {"llm": 0.0, "tool": 0.0, "overlap": 0.0, "other": 0.0}
        return {
            "llm": self.llm_time / self.total,
            "tool": self.tool_time / self.total,
            "overlap": self.overlap_time / self.total,
            "other": self.other_time / self.total,
        }

    @classmethod
    def from_result(cls, result: AgentRunResult) -> "LatencyBreakdown":
        window = (result.start_time, result.end_time)
        llm_union = merge_intervals(result.llm_intervals())
        tool_union = merge_intervals(result.tool_intervals())
        overlap = total_length(intersect(llm_union, tool_union))
        llm_total = total_length(llm_union)
        tool_total = total_length(tool_union)
        covered = total_length(merge_intervals(list(llm_union) + list(tool_union)))
        total = max(0.0, window[1] - window[0])
        other = max(0.0, total - covered)
        return cls(
            llm_time=max(0.0, llm_total - overlap),
            tool_time=max(0.0, tool_total - overlap),
            overlap_time=overlap,
            other_time=other,
            total=total,
        )

    @classmethod
    def average(cls, breakdowns: Iterable["LatencyBreakdown"]) -> "LatencyBreakdown":
        items = list(breakdowns)
        if not items:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            llm_time=mean([b.llm_time for b in items]),
            tool_time=mean([b.tool_time for b in items]),
            overlap_time=mean([b.overlap_time for b in items]),
            other_time=mean([b.other_time for b in items]),
            total=mean([b.total for b in items]),
        )


@dataclass(frozen=True)
class TokenBreakdown:
    """Average prompt/output composition of a request's LLM calls (Fig. 8)."""

    instruction: float
    few_shot: float
    user: float
    llm_history: float
    tool_history: float
    output: float

    @property
    def input_total(self) -> float:
        return (
            self.instruction + self.few_shot + self.user + self.llm_history + self.tool_history
        )

    @property
    def total(self) -> float:
        return self.input_total + self.output

    def as_dict(self) -> Dict[str, float]:
        return {
            "instruction": self.instruction,
            "few_shot": self.few_shot,
            "user": self.user,
            "llm_history": self.llm_history,
            "tool_history": self.tool_history,
            "output": self.output,
        }

    @classmethod
    def from_result(cls, result: AgentRunResult) -> "TokenBreakdown":
        if not result.llm_calls:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        by_kind = result.mean_prompt_tokens_by_kind()
        output = mean([call.output_tokens for call in result.llm_calls])
        return cls(
            instruction=by_kind.get(SegmentKind.INSTRUCTION, 0.0),
            few_shot=by_kind.get(SegmentKind.FEW_SHOT, 0.0),
            user=by_kind.get(SegmentKind.USER, 0.0),
            llm_history=by_kind.get(SegmentKind.LLM_HISTORY, 0.0),
            tool_history=by_kind.get(SegmentKind.TOOL_HISTORY, 0.0),
            output=output,
        )

    @classmethod
    def average(cls, breakdowns: Iterable["TokenBreakdown"]) -> "TokenBreakdown":
        items = list(breakdowns)
        if not items:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            instruction=mean([b.instruction for b in items]),
            few_shot=mean([b.few_shot for b in items]),
            user=mean([b.user for b in items]),
            llm_history=mean([b.llm_history for b in items]),
            tool_history=mean([b.tool_history for b in items]),
            output=mean([b.output for b in items]),
        )


@dataclass(frozen=True)
class GpuRuntimeBreakdown:
    """GPU time split into prefill / decode / idle within a window (Fig. 6).

    ``mixed`` is the time spent in chunked-prefill steps that co-schedule
    prompt chunks with decode tokens; it is zero unless an engine runs with
    ``prefill_chunk_tokens`` set, and counts as active (not idle) time.
    """

    prefill: float
    decode: float
    idle: float
    mixed: float = 0.0

    @property
    def total(self) -> float:
        return self.prefill + self.decode + self.mixed + self.idle

    @property
    def utilization(self) -> float:
        """Fraction of the window the GPU was actively computing."""
        if self.total <= 0:
            return 0.0
        return (self.prefill + self.decode + self.mixed) / self.total

    @property
    def fractions(self) -> Dict[str, float]:
        if self.total <= 0:
            return {"prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0}
        return {
            "prefill": self.prefill / self.total,
            "decode": self.decode / self.total,
            "mixed": self.mixed / self.total,
            "idle": self.idle / self.total,
        }

    @classmethod
    def from_engine_window(cls, breakdown: Dict[str, float]) -> "GpuRuntimeBreakdown":
        return cls(
            prefill=breakdown.get("prefill", 0.0),
            decode=breakdown.get("decode", 0.0),
            idle=breakdown.get("idle", 0.0),
            mixed=breakdown.get("mixed", 0.0),
        )

    @classmethod
    def average(cls, items: Iterable["GpuRuntimeBreakdown"]) -> "GpuRuntimeBreakdown":
        collected = list(items)
        if not collected:
            return cls(0.0, 0.0, 0.0)
        return cls(
            prefill=mean([b.prefill for b in collected]),
            decode=mean([b.decode for b in collected]),
            idle=mean([b.idle for b in collected]),
            mixed=mean([b.mixed for b in collected]),
        )


@dataclass(frozen=True)
class PoolStats:
    """Engine-level metrics for one replica pool over a measured window."""

    name: str
    num_replicas: int            # replicas ever provisioned (incl. drained)
    active_replicas: int         # replicas taking traffic at window close
    routed_counts: List[int] = field(default_factory=list)
    spilled_in: int = 0
    spilled_out: int = 0
    replica_seconds: float = 0.0
    energy_wh: float = 0.0
    # Hardware cost accounting: the pool's replica-hour price (GPU on-demand
    # price x TP degree) and the USD its measured replica-seconds cost.
    cost_per_hour: float = 0.0
    cost_usd: float = 0.0
    gpu: str = ""
    completed_llm_requests: int = 0
    llm_p95_latency_s: float = 0.0
    llm_throughput_qps: float = 0.0
    preemptions: int = 0
    prefix_cache_hit_rate: float = 0.0
    # Door-level admission accounting attributed to this pool.
    rejected_requests: int = 0
    shed_tokens: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "pool": self.name,
            "replicas": self.num_replicas,
            "active": self.active_replicas,
            "routed": sum(self.routed_counts),
            "spilled_in": self.spilled_in,
            "spilled_out": self.spilled_out,
            "replica_seconds": self.replica_seconds,
            "energy_wh": self.energy_wh,
            "cost_per_hour": self.cost_per_hour,
            "cost_usd": self.cost_usd,
            "gpu": self.gpu,
            "llm_requests": self.completed_llm_requests,
            "llm_p95_s": self.llm_p95_latency_s,
            "llm_qps": self.llm_throughput_qps,
            "preemptions": self.preemptions,
            "prefix_hit_rate": self.prefix_cache_hit_rate,
            "rejected": self.rejected_requests,
            "shed_tokens": self.shed_tokens,
        }


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of request latencies."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        data = list(values)
        return cls(
            count=len(data),
            mean=mean(data),
            p50=percentile(data, 50),
            p95=percentile(data, 95),
            p99=percentile(data, 99),
            maximum=max(data) if data else 0.0,
        )
