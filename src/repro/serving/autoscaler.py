"""Elastic-capacity controller: grows/shrinks a replica pool during a run.

The :class:`Autoscaler` is a periodic simulation process watching one
:class:`~repro.serving.cluster.ReplicaPool`, built as ``Autoscaler(env,
pool, spec)`` from an :class:`AutoscalerSpec`, the one place its
parameters are declared, defaulted and validated.  It runs in one of two
modes:

**reactive** (the default, and the historical behaviour, golden-pinned):
every ``check_interval_s`` it evaluates two load signals -- queue depth
(pending requests per provisioned replica) and the rolling p95 of
LLM-request latencies completed within the last ``p95_window_s`` -- and
scales the pool between ``min_replicas`` and ``max_replicas``:

* **up** when queue depth exceeds ``scale_up_pending_per_replica`` or the
  rolling p95 violates ``p95_slo_s`` (when set); the new replica pays for
  capacity immediately but only takes traffic after ``warmup_s`` (cold-start
  cost),
* **down** when queue depth falls below ``scale_down_pending_per_replica``
  and no SLO pressure remains; the drained replica stops accruing
  replica-seconds at once.

**predictive**: instead of waiting for queue pressure, the controller asks
an :class:`~repro.serving.forecast.ArrivalForecaster` for the arrival rate
expected over the next ``horizon_s``, converts it into a decode-token
demand (forecast arrivals x the mean decode tokens recent requests cost,
plus the predictor-estimated backlog already enqueued), divides by the
decode-token rate one active replica has recently sustained, and provisions
the resulting target *now* -- so capacity that needs ``warmup_s`` to boot
is warm when the forecast burst lands.  Hysteresis is in replica space
(scale up when the target exceeds provisioned capacity, down only when it
falls a whole replica below *and* the queue is quiet) and ``cooldown_s``
applies to both directions.  Until the pool has completed enough work to
estimate its service rate, the predictive controller falls back to the
reactive signals (scaling on ignorance would thrash the fleet).

``cooldown_s`` suppresses flapping after either action.  Scaling decisions
are recorded on the pool as :class:`~repro.serving.cluster.ScalingEvent` s,
and the pool's replica-seconds give the cost side of the elasticity
trade-off.  Predictive runs additionally record *scale-ahead lead times*:
for each forecast-triggered grow, the delay until the reactive trigger
(queue pressure) would have fired -- the head start prediction bought.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, List, Optional, Tuple

from repro.core.metrics import percentile
from repro.llm.predictor import DecodeLengthPredictor
from repro.serving.cluster import ReplicaPool
from repro.serving.forecast import FORECASTERS, available_forecasters
from repro.sim import Environment


@dataclass(frozen=True)
class AutoscalerSpec:
    """Elastic sizing of one pool from load signals (see the module doc).

    ``pool=""`` targets the default (first) pool.  ``mode`` is
    ``"reactive"`` (the default, golden-pinned) or ``"predictive"``, whose
    ``forecaster`` (:mod:`repro.serving.forecast` registry: ``none`` |
    ``windowed-rate`` | ``ewma`` | ``holt``) is built from this spec and
    lists the ``forecaster_*`` fields it reads in ``READS`` (the window for
    ``windowed-rate``; bucket and alpha for ``ewma``; bucket, alpha and beta
    for ``holt``).  Construction rejects a ``forecaster*`` field set away
    from its default that the chosen forecaster does not read, and every
    one of them on a reactive spec.  ``horizon_s`` is the look-ahead of the
    predictive target and of a cooperative ``slo-shed`` gate, so both modes
    take it.
    """

    pool: str = ""
    min_replicas: int = 1
    max_replicas: int = 4
    check_interval_s: float = 2.0
    warmup_s: float = 5.0
    cooldown_s: float = 0.0
    scale_up_pending_per_replica: float = 4.0
    scale_down_pending_per_replica: float = 1.0
    p95_slo_s: Optional[float] = None
    p95_window_s: float = 30.0
    mode: str = "reactive"
    forecaster: str = "windowed-rate"
    horizon_s: float = 10.0
    forecaster_window_s: float = 10.0
    forecaster_bucket_s: float = 2.0
    forecaster_alpha: float = 0.5
    forecaster_beta: float = 0.3

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("autoscaler min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("autoscaler max_replicas must be >= min_replicas")
        if self.check_interval_s <= 0:
            raise ValueError("autoscaler check_interval_s must be > 0")
        if self.warmup_s < 0 or self.cooldown_s < 0:
            raise ValueError("autoscaler warm-up/cooldown must be >= 0")
        if self.scale_down_pending_per_replica >= self.scale_up_pending_per_replica:
            raise ValueError(
                "autoscaler scale-down threshold must be below the scale-up threshold"
            )
        if self.p95_slo_s is not None and self.p95_slo_s <= 0:
            raise ValueError("autoscaler p95_slo_s must be > 0 (or None)")
        if self.p95_window_s <= 0:
            raise ValueError("autoscaler p95_window_s must be > 0")
        if self.mode not in ("reactive", "predictive"):
            raise ValueError(
                f"unknown autoscaler mode {self.mode!r}; "
                "known: ['reactive', 'predictive']"
            )
        if self.forecaster.lower() not in FORECASTERS:
            raise ValueError(
                f"unknown arrival forecaster {self.forecaster!r}; "
                f"known: {available_forecasters()}"
            )
        if self.horizon_s <= 0:
            raise ValueError("autoscaler horizon_s must be > 0")
        if self.forecaster_window_s <= 0 or self.forecaster_bucket_s <= 0:
            raise ValueError("forecaster window/bucket must be > 0")
        if not 0 < self.forecaster_alpha <= 1 or not 0 < self.forecaster_beta <= 1:
            raise ValueError("forecaster alpha/beta must be in (0, 1]")
        # A reactive autoscaler builds no forecaster, so it reads none of them.
        reader, reads = "a reactive autoscaler", ()
        if self.mode == "predictive":
            reader = f"arrival forecaster {self.forecaster!r}"
            reads = ("forecaster", *FORECASTERS[self.forecaster.lower()].READS)
        for spec_field in fields(self):
            name = spec_field.name
            if (
                name.startswith("forecaster")
                and name not in reads
                and getattr(self, name) != spec_field.default
            ):
                raise ValueError(f"{reader} does not take {name}")


def rolling_window_completions(replicas, window_s: float, now: float) -> List:
    """LLM requests completed within the trailing ``window_s`` across replicas.

    ``completed_requests`` is append-ordered by finish time, so the window is
    the tail of each replica's list.  This is the rolling-window load signal
    shared by the :class:`Autoscaler` (p95 of the completions) and SLO-aware
    admission control (recent decode throughput; see
    :class:`repro.serving.admission.ClusterLoadProbe`).
    """
    cutoff = now - window_s
    window: List = []
    for engine in replicas:
        for request in reversed(engine.completed_requests):
            finished = request.timings.finished
            if finished is None or finished < cutoff:
                break
            window.append(request)
    return window


class Autoscaler:
    """Feedback controller that elastically sizes one replica pool.

    ``predictor`` prices the pool's backlog in predicted decode tokens (the
    cluster's shared :class:`~repro.llm.predictor.DecodeLengthPredictor`;
    an exact one when omitted).  Predictive mode builds its arrival
    forecaster from the spec; the serving driver feeds it arrivals.
    """

    def __init__(
        self,
        env: Environment,
        pool: ReplicaPool,
        spec: AutoscalerSpec,
        predictor: Optional[DecodeLengthPredictor] = None,
    ):
        self.env = env
        self.pool = pool
        self.spec = spec
        self.predictor = predictor or DecodeLengthPredictor()
        self.forecaster = None
        if spec.mode == "predictive":
            self.forecaster = FORECASTERS[spec.forecaster.lower()](spec)
        self._last_action_time = float("-inf")
        # Forecast-triggered grows whose reactive counterpart has not fired
        # yet: (grow time, pre-grow provisioned count) pairs waiting for the
        # first heartbeat at which the counterfactual reactive trigger fires.
        self._pending_lead_probes: List[Tuple[float, int]] = []
        # (time, num_active) heartbeat samples over the trailing window: the
        # completion window's tokens were produced by the *historical* active
        # counts, so per-replica rate must divide by their mean -- dividing
        # by the instantaneous count would transiently halve the measured
        # rate every time a scale-up lands and overshoot the next target.
        self._active_samples: Deque[Tuple[float, int]] = deque()
        #: Scale-ahead lead times (seconds of head start per predictive grow).
        self.scale_ahead_leads: List[float] = []
        # The heartbeat timeout currently pending; exposed so the serving
        # driver can tell autoscaler heartbeats apart from foreground work
        # when checking run liveness.
        self.sleep_event = None
        self.process = env.process(self._run())

    # -- control loop ---------------------------------------------------------
    def _run(self):
        while True:
            self.sleep_event = self.env.timeout(self.spec.check_interval_s)
            yield self.sleep_event
            if self.spec.mode == "predictive":
                self._evaluate_predictive()
            else:
                self._evaluate()

    def _evaluate(self) -> None:
        now = self.env.now
        if now - self._last_action_time < self.spec.cooldown_s:
            return
        pool = self.pool
        provisioned = pool.num_provisioned
        pending_per_replica = pool.num_pending_requests / max(provisioned, 1)
        slo = self.spec.p95_slo_s
        # The rolling-p95 scan is only paid for when an SLO watches it.
        rolling_p95 = 0.0 if slo is None else self.rolling_p95(now)
        slo_violated = slo is not None and rolling_p95 > slo
        if provisioned < self.spec.max_replicas and (
            pending_per_replica > self.spec.scale_up_pending_per_replica or slo_violated
        ):
            reason = (
                f"p95={rolling_p95:.2f}s>SLO"
                if slo_violated
                else f"pending/replica={pending_per_replica:.2f}"
            )
            pool.grow(warmup_s=self.spec.warmup_s, reason=reason)
            self._last_action_time = now
            return
        if (
            pool.num_active > self.spec.min_replicas
            and provisioned > self.spec.min_replicas
            and pending_per_replica < self.spec.scale_down_pending_per_replica
            and not slo_violated
        ):
            pool.shrink(reason=f"pending/replica={pending_per_replica:.2f}")
            self._last_action_time = now

    def _evaluate_predictive(self) -> None:
        now = self.env.now
        self._record_active_sample(now)
        # One rolling-window scan per heartbeat: rate, mean decode length,
        # and the SLO check are all derived from the same completion window.
        window = self.recent_completions(now)
        slo_violated = self.spec.p95_slo_s is not None and (
            percentile(
                [request.timings.e2e_latency for request in window], 95.0
            )
            > self.spec.p95_slo_s
        )
        self._resolve_lead_probes(now, slo_violated)
        if now - self._last_action_time < self.spec.cooldown_s:
            return
        per_replica_rate = self._per_replica_token_rate(window, now)
        if per_replica_rate <= 0.0:
            # Cold start: no service-rate signal yet, so a token-demand target
            # would be division by ignorance.  React to queue pressure instead.
            self._evaluate()
            return
        pool = self.pool
        provisioned = pool.num_provisioned
        forecast_rate = self.forecaster.forecast_rate(now, self.spec.horizon_s)
        mean_tokens = (
            sum(request.num_output_tokens for request in window) / len(window)
            if window
            else 0.0
        )
        target = self._target_replicas(
            per_replica_rate, forecast_rate, mean_tokens
        )
        if target > provisioned:
            # The counterfactual must be judged at the PRE-grow capacity: a
            # reactive fleet would not have these replicas, so its trigger
            # fires against the smaller provisioned count.
            pre_pressure = slo_violated or (
                pool.num_pending_requests / max(provisioned, 1)
                > self.spec.scale_up_pending_per_replica
            )
            reason = f"forecast={forecast_rate:.2f}qps target={target}"
            for _ in range(target - provisioned):
                pool.grow(warmup_s=self.spec.warmup_s, reason=reason)
            self._last_action_time = now
            if not pre_pressure:
                # A genuine scale-ahead: capacity provisioned before queue
                # pressure would have forced the reactive controller's hand.
                self._pending_lead_probes.append((now, provisioned))
            return
        # Hysteresis: scale down only when the target sits a whole replica
        # below provisioned capacity, the queue is actually quiet, AND no SLO
        # pressure remains (matching the reactive controller's refusal to
        # shrink mid-violation), so a noisy forecast cannot flap the fleet
        # around its operating point.
        if (
            target < provisioned
            and not slo_violated
            and pool.num_active > self.spec.min_replicas
            and provisioned > self.spec.min_replicas
            and pool.num_pending_requests / max(provisioned, 1)
            < self.spec.scale_down_pending_per_replica
        ):
            pool.shrink(reason=f"target={target}<provisioned={provisioned}")
            self._last_action_time = now

    def _resolve_lead_probes(self, now: float, slo_violated: bool) -> None:
        """Close lead probes whose reactive counterfactual trigger just fired.

        Each probe remembers the capacity the fleet had *before* its grow:
        the reactive controller would still be at that size, so its queue
        pressure is the current backlog divided by the pre-grow count.
        """
        if not self._pending_lead_probes:
            return
        pending = self.pool.num_pending_requests
        remaining: List[Tuple[float, int]] = []
        for grew_at, provisioned_before in self._pending_lead_probes:
            fired = slo_violated or (
                pending / max(provisioned_before, 1)
                > self.spec.scale_up_pending_per_replica
            )
            if fired:
                self.scale_ahead_leads.append(now - grew_at)
            else:
                remaining.append((grew_at, provisioned_before))
        self._pending_lead_probes = remaining

    # -- load signals ---------------------------------------------------------
    def rolling_p95(self, now: Optional[float] = None) -> float:
        """p95 of LLM-request latencies completed within the rolling window."""
        now = self.env.now if now is None else now
        window = rolling_window_completions(
            self.pool.replicas, self.spec.p95_window_s, now
        )
        return percentile([request.timings.e2e_latency for request in window], 95.0)

    def recent_completions(self, now: Optional[float] = None) -> List:
        """Pool requests completed within the trailing ``p95_window_s``."""
        now = self.env.now if now is None else now
        return rolling_window_completions(
            self.pool.replicas, self.spec.p95_window_s, now
        )

    def _record_active_sample(self, now: float) -> None:
        self._active_samples.append((now, self.pool.num_active))
        cutoff = now - self.spec.p95_window_s
        while self._active_samples and self._active_samples[0][0] < cutoff:
            self._active_samples.popleft()

    def _mean_active_over_window(self) -> float:
        """Mean active-replica count across the window's heartbeat samples."""
        if not self._active_samples:
            return float(max(self.pool.num_active, 1))
        return sum(count for _, count in self._active_samples) / len(
            self._active_samples
        )

    def _per_replica_token_rate(self, window: List, now: float) -> float:
        if not window:
            return 0.0
        span = min(self.spec.p95_window_s, now) if now > 0 else self.spec.p95_window_s
        if span <= 0:
            return 0.0
        total = sum(request.num_output_tokens for request in window)
        return total / span / max(self._mean_active_over_window(), 1.0)

    def mean_tokens_per_request(self, now: float) -> float:
        """Mean decode tokens of recently completed pool requests."""
        window = self.recent_completions(now)
        if not window:
            return 0.0
        return sum(request.num_output_tokens for request in window) / len(window)

    def _target_replicas(
        self, per_replica_rate: float, forecast_rate: float, mean_tokens: float
    ) -> int:
        """Replicas needed to clear backlog + forecast demand within the horizon.

        Demand is measured in decode tokens: the predictor-estimated backlog
        already enqueued on the pool, plus the forecast arrival count over
        ``horizon_s`` priced at ``mean_tokens``, the mean decode tokens recent
        requests cost.  Dividing by what one replica clears per horizon gives
        the target, clamped to ``[min_replicas, max_replicas]``.
        """
        backlog = self.pool.pending_predicted_tokens(self.predictor)
        demand = backlog + forecast_rate * self.spec.horizon_s * mean_tokens
        per_replica_budget = per_replica_rate * self.spec.horizon_s
        target = math.ceil(demand / per_replica_budget) if per_replica_budget > 0 else 0
        return max(self.spec.min_replicas, min(self.spec.max_replicas, target))

    def forecast_mae(self, now: Optional[float] = None) -> Optional[float]:
        """Mean absolute forecast-rate error over matured forecasts."""
        if self.forecaster is None:
            return None
        now = self.env.now if now is None else now
        return self.forecaster.mean_absolute_error(now)
