"""The record of one serving run (paper Fig. 10's agent serving system).

:class:`ServingResult` holds what an open-loop serving run measured: the
agent runs it completed and the fleet, door and engine telemetry over the
measured window.  :func:`repro.api.run_experiment` wraps it in a
:class:`~repro.api.results.ResultSet`, which derives every metric from
these fields; the serving loop itself is
:class:`~repro.api.runners.ServingDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.agents import AgentRunResult
from repro.core.metrics import GpuRuntimeBreakdown, PoolStats
from repro.serving.admission import ClassAdmissionStats
from repro.serving.cluster import ScalingEvent
from repro.serving.sessions import SessionStats
from repro.serving.tenants import TenantFairnessStats


@dataclass
class ServingResult:
    """Measured outcome of one serving run at a fixed offered load."""

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
