"""The outcome of one serving run (paper Fig. 10's agent serving system).

:class:`ServingResult` is what :func:`repro.api.run_experiment` returns
(wrapped in a :class:`~repro.api.results.ResultSet`) for open-loop and
sequential arrival processes; the serving loop itself is
:class:`~repro.api.runners.ServingDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.agents import AgentRunResult
from repro.core.metrics import (
    GpuRuntimeBreakdown,
    LatencyStats,
    PoolStats,
    TrafficClassStats,
    mean,
    percentile,
)
from repro.serving.admission import ClassAdmissionStats
from repro.serving.cluster import ScalingEvent
from repro.serving.sessions import SessionStats
from repro.serving.tenants import TenantFairnessStats


@dataclass
class ServingResult:
    """Outcome of one serving run at a fixed offered load."""

    offered_qps: float
    num_requests: int
    results: List[AgentRunResult] = field(default_factory=list)
    duration: float = 0.0
    energy_wh: float = 0.0
    gpu: GpuRuntimeBreakdown = field(default_factory=lambda: GpuRuntimeBreakdown(0, 0, 0))
    kv_average_bytes: float = 0.0
    kv_max_bytes: float = 0.0
    preemptions: int = 0
    prefix_cache_hit_rate: float = 0.0
    num_replicas: int = 1
    # Requests routed to each replica, by replica index.
    routed_counts: List[int] = field(default_factory=list)
    # Per-request delay between arrival and worker admission (all zero unless
    # an admission policy delayed requests at the door).
    admission_delays: List[float] = field(default_factory=list)
    # -- fleet reporting (single-pool runs have one "default" entry) ---------
    # Engine-level metrics per replica pool over the measured window.
    pool_stats: Dict[str, PoolStats] = field(default_factory=dict)
    # Request-level metrics per traffic class (empty without a mixture).
    class_stats: Dict[str, TrafficClassStats] = field(default_factory=dict)
    # Replica-seconds paid for across every pool (cost accounting).
    replica_seconds: float = 0.0
    # USD cost of those replica-seconds, priced per pool's hardware (GPU
    # on-demand price x TP degree), summed across pools.
    cost_usd: float = 0.0
    # Prompt + output tokens of the measured requests (the denominator of
    # cost_per_1k_tokens).
    served_tokens: float = 0.0
    # Elastic-capacity actions taken during the run (empty without autoscaling).
    scaling_events: List[ScalingEvent] = field(default_factory=list)
    # Door-level admission accounting per traffic class ("" = unlabelled
    # requests).  Driver-served runs record every arrival here, open door or
    # not; the counts cover the whole run (door events cannot be warm-up
    # trimmed the way completion metrics are).
    admission_stats: Dict[str, ClassAdmissionStats] = field(default_factory=dict)
    # Experiment-wide p95 latency SLO declared in MeasurementSpec (None = none).
    slo_p95_s: Optional[float] = None
    # -- predictive-autoscaling telemetry (None/empty without a forecaster) --
    # Mean absolute arrival-rate forecast error (req/s) over matured forecasts.
    forecast_mae: Optional[float] = None
    # Per forecast-triggered grow: seconds of head start over the reactive
    # trigger (queue pressure crossing the scale-up threshold).
    scale_ahead_leads: List[float] = field(default_factory=list)
    # Per-tenant fairness accounting over the contended window (None for
    # untenanted runs).
    tenant_stats: Optional[TenantFairnessStats] = None
    # Multi-turn session accounting (None for sessionless runs).
    session_stats: Optional[SessionStats] = None
    # -- engine-fidelity telemetry (all zero when the features are off) ------
    # Seconds decode sequences spent blocked behind atomic prefill steps
    # (head-of-line blocking; chunked prefill drives this toward zero).
    prefill_hol_block_s: float = 0.0
    # Speculative decoding: per-sequence verify events and the draft tokens
    # they accepted (excluding bonus tokens), summed across replicas.
    spec_sequence_steps: int = 0
    spec_accepted_tokens: int = 0
    # Joules spent in draft-model forward passes within the measured window.
    draft_energy_j: float = 0.0

    @property
    def mean_accepted_per_step(self) -> Optional[float]:
        """Mean draft tokens accepted per verify (None without speculation)."""
        if self.spec_sequence_steps == 0:
            return None
        return self.spec_accepted_tokens / self.spec_sequence_steps

    @property
    def num_completed(self) -> int:
        return len(self.results)

    @property
    def scale_ahead_lead_s(self) -> Optional[float]:
        """Mean scale-ahead lead time (``None`` without predictive grows)."""
        if not self.scale_ahead_leads:
            return None
        return mean(self.scale_ahead_leads)

    @property
    def latencies(self) -> List[float]:
        return [result.e2e_latency for result in self.results]

    @property
    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_values(self.latencies)

    @property
    def mean_latency(self) -> float:
        return mean(self.latencies)

    @property
    def p95_latency(self) -> float:
        return self.latency_stats.p95

    @property
    def throughput_qps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.num_completed / self.duration

    @property
    def energy_wh_per_query(self) -> float:
        if self.num_completed == 0:
            return 0.0
        return self.energy_wh / self.num_completed

    @property
    def energy_j(self) -> float:
        """Measured-window energy in joules (the Wh figure, SI units)."""
        return self.energy_wh * 3600.0

    @property
    def cost_per_1k_tokens(self) -> float:
        """USD per 1000 served tokens (0.0 when nothing was served)."""
        if self.served_tokens <= 0:
            return 0.0
        return self.cost_usd / (self.served_tokens / 1000.0)

    @property
    def accuracy(self) -> float:
        if not self.results:
            return 0.0
        return mean([1.0 if result.answer_correct else 0.0 for result in self.results])

    # -- admission control ----------------------------------------------------
    @property
    def num_queued(self) -> int:
        """Requests that waited at the door before a worker slot opened."""
        return sum(1 for delay in self.admission_delays if delay > 0)

    @property
    def mean_admission_delay(self) -> float:
        return mean(self.admission_delays)

    @property
    def p95_admission_delay(self) -> float:
        if not self.admission_delays:
            return 0.0
        return percentile(self.admission_delays, 95.0)

    @property
    def num_rejected(self) -> int:
        """Requests the admission policy shed instead of serving."""
        return sum(stats.rejected for stats in self.admission_stats.values())

    @property
    def rejection_rate(self) -> float:
        """Shed fraction of the offered load (0.0 with an open door)."""
        offered = sum(stats.offered for stats in self.admission_stats.values())
        if offered == 0:
            return 0.0
        return self.num_rejected / offered

    @property
    def shed_tokens(self) -> float:
        """Estimated decode tokens the fleet avoided by shedding requests."""
        return sum(stats.shed_tokens for stats in self.admission_stats.values())

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of measured requests meeting the experiment-wide p95 SLO.

        ``None`` when the spec declares no experiment-wide SLO; per-class
        SLOs live in :attr:`class_stats`.
        """
        if self.slo_p95_s is None:
            return None
        if not self.results:
            return 0.0
        return mean(
            [1.0 if latency <= self.slo_p95_s else 0.0 for latency in self.latencies]
        )

    # -- per-tenant fairness ---------------------------------------------------
    @property
    def served_token_ratio(self) -> Optional[float]:
        """Served-token max/min ratio across contending tenants (1.0 = fair).

        ``None`` for untenanted runs; ``inf`` when a contending tenant was
        fully starved within the contended window.
        """
        if self.tenant_stats is None:
            return None
        return self.tenant_stats.max_min_ratio

    @property
    def jain_fairness(self) -> Optional[float]:
        """Jain's fairness index over per-tenant served tokens (``None`` untenanted)."""
        if self.tenant_stats is None:
            return None
        return self.tenant_stats.jain

    @property
    def tenant_throttle_rate(self) -> Optional[float]:
        """Door rejection fraction of tenanted offers (``None`` untenanted)."""
        if self.tenant_stats is None:
            return None
        return self.tenant_stats.throttle_rate

    # -- multi-turn sessions ----------------------------------------------------
    @property
    def cross_turn_hit_rate(self) -> Optional[float]:
        """Prefix-cache hit rate over later-turn prompt tokens (``None`` sessionless).

        Measures how much conversation context survived the think-time gap:
        1.0 means every later turn re-read its history straight from the KV
        cache of the replica that served the previous turn.
        """
        if self.session_stats is None:
            return None
        return self.session_stats.cross_turn_hit_rate

    @property
    def num_sessions(self) -> Optional[int]:
        """Interactions started during the run (``None`` for sessionless runs)."""
        if self.session_stats is None:
            return None
        return self.session_stats.num_sessions

    @property
    def completed_sessions(self) -> Optional[int]:
        """Interactions that finished their final turn (``None`` sessionless)."""
        if self.session_stats is None:
            return None
        return self.session_stats.completed_sessions

    @property
    def total_turns(self) -> Optional[int]:
        """Turns served across every session (``None`` for sessionless runs)."""
        if self.session_stats is None:
            return None
        return self.session_stats.total_turns

    @property
    def mean_turns_per_session(self) -> Optional[float]:
        """Mean turns served per started session (``None`` sessionless)."""
        if self.session_stats is None:
            return None
        return self.session_stats.mean_turns_per_session

    @property
    def affinity_invalidations(self) -> Optional[int]:
        """Sticky-routing re-pins: spills plus homes lost to replica churn."""
        if self.session_stats is None:
            return None
        return self.session_stats.affinity_invalidations

    def per_class_admission(self) -> List[Dict[str, object]]:
        """One flat row per traffic class of the door accounting."""
        return [stats.as_dict() for stats in self.admission_stats.values()]
