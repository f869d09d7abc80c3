"""SLO-aware admission control: pluggable door policies for the serving fleet.

Admission control is a policy registry, declared on an experiment with
:class:`~repro.api.spec.AdmissionSpec`.  A policy sees every request the
moment it arrives at the serving system -- *before* any work is enqueued on
a replica pool -- and answers with one of three decisions:

* ``admit``  -- spawn the request's worker immediately,
* ``delay``  -- hold the request at the door (it is re-offered when capacity
  frees up or, for rate limiting, when the bucket refills),
* ``reject`` -- shed the request: it never runs, and the fleet records the
  rejection and the decode tokens it avoided.

Built-in policies:

* :class:`UnlimitedAdmission` (``unlimited``) -- the open door (the
  default; requests are never delayed or rejected),
* :class:`ConcurrencyAdmission` (``concurrency``) -- at most
  ``max_concurrency`` in-flight requests, excess queue at the door.  This
  reproduces the historical enforced gate event-for-event (golden-pinned in
  ``tests/test_admission.py``),
* :class:`TokenBucketAdmission` (``token-bucket``) -- classic rate + burst
  limiting; the bucket holds ``burst`` tokens and refills continuously at
  ``rate_qps``.  Over-rate requests are delayed until the next token accrues
  (``overload_action="delay"``, the default) or shed outright (``"reject"``),
* :class:`SloShedAdmission` (``slo-shed``) -- deadline-aware shedding: the
  policy projects the p95 latency a newly admitted request would experience
  (rolling window of completed request latencies, the same signal the
  :class:`~repro.serving.autoscaler.Autoscaler` scales on, plus the time to
  drain the fleet's current backlog of
  :class:`~repro.llm.predictor.DecodeLengthPredictor`-predicted decode
  tokens) and sheds work while the projection violates the declared SLO.
  Engagement is hysteretic: shedding starts when the projection exceeds
  ``slo_p95_s * enter_factor`` and stops only once it falls below
  ``slo_p95_s * exit_factor``, so the gate does not flap around the SLO.
  With ``cooperative=True`` the projection additionally credits in-flight
  autoscaler scale-ups landing within the forecast horizon, so the gate
  sheds only when warm replicas cannot catch up in time,
* :class:`OITThrottleAdmission` (``oit-throttle``) -- interaction-aware
  per-tenant throttling: rolling per-user / per-app requests-per-minute
  windows that bite only while the cluster is under KV or queue pressure,
  and never sever an in-progress interaction (a tenant with work already
  in flight is always admitted).

Tenant-aware policies set the ``tenant_aware`` class flag and take the
arrival's :class:`~repro.serving.tenants.Tenant` as an extra argument to
``decide`` / ``admit`` / ``release``; the controller dispatches on the flag
so existing two-argument policies (including externally registered ones)
keep working unchanged.

Policies are consulted per traffic class through the
:class:`AdmissionController`, which owns the per-class policy table and all
accounting (offered/admitted/delayed/rejected counts and shed-token
estimates, also attributed to the replica pool that would have served the
request).  This is how a chat SLO sheds *agent* load: route the agent class
to an ``slo-shed`` policy whose ``protect_class`` is the chat class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Type

from repro.core.metrics import percentile
from repro.registry import PolicyRegistry

#: Decision vocabulary returned by :meth:`AdmissionPolicy.decide`.
ADMIT = "admit"
DELAY = "delay"
REJECT = "reject"

#: Stats key under which requests without a traffic class are accounted.
UNLABELLED = ""


# ---------------------------------------------------------------------------
# Fleet load signals
# ---------------------------------------------------------------------------


class ClusterLoadProbe:
    """Read-only load signals an admission policy may consult.

    The probe is the cluster-layer half of admission control: it exposes the
    backlog currently enqueued across every replica pool (in
    predicted-decode-token terms, via the cluster's shared
    :class:`~repro.llm.predictor.DecodeLengthPredictor`) and the decode
    throughput recently sustained by the fleet, from which a policy can
    project how long newly admitted work would wait.
    """

    def __init__(self, cluster):
        self.cluster = cluster

    def pending_predicted_tokens(self) -> float:
        """Predicted decode tokens enqueued (waiting or mid-decode) fleet-wide."""
        return self.cluster.pending_predicted_tokens()

    def recent_decode_token_rate(self, now: float, window_s: float) -> float:
        """Decode tokens/s completed within the trailing window (0 when idle)."""
        from repro.serving.autoscaler import rolling_window_completions

        completed = rolling_window_completions(
            list(self.cluster.engines), window_s, now
        )
        if not completed:
            return 0.0
        span = min(window_s, now) if now > 0 else window_s
        if span <= 0:
            return 0.0
        return sum(request.num_output_tokens for request in completed) / span

    def backlog_drain_seconds(self, now: float, window_s: float) -> float:
        """Seconds the current backlog needs to drain at the recent decode rate.

        Zero when the fleet has no recent throughput signal (cold start): with
        nothing completed yet there is no basis for a projection, and admission
        should not shed on ignorance.
        """
        rate = self.recent_decode_token_rate(now, window_s)
        if rate <= 0.0:
            return 0.0
        return self.pending_predicted_tokens() / rate

    # -- scale-ahead signals (cooperative admission) -------------------------
    def active_replicas(self) -> int:
        """Replicas currently taking traffic across every pool."""
        return sum(pool.num_active for pool in self.cluster.pools.values())

    def warming_replicas_within(self, now: float, horizon_s: float) -> int:
        """In-flight scale-ups fleet-wide whose warm-up lands within the horizon."""
        return sum(
            pool.warming_replicas_within(now, horizon_s)
            for pool in self.cluster.pools.values()
        )

    def projected_drain_seconds(
        self, now: float, window_s: float, horizon_s: float
    ) -> float:
        """Backlog drain time at the rate the fleet sustains *after* in-flight
        scale-ups land.

        The recently sustained decode rate is credited pro-rata for every
        warming replica whose warm-up completes within ``horizon_s`` -- the
        signal cooperative admission sheds against, so load the autoscaler is
        already absorbing is not shed twice.
        """
        drain = self.backlog_drain_seconds(now, window_s)
        if drain <= 0.0:
            return drain
        active = self.active_replicas()
        landing = self.warming_replicas_within(now, horizon_s)
        if active > 0 and landing > 0:
            drain *= active / (active + landing)
        return drain

    # -- pressure signals (interaction-aware throttling) ---------------------
    def kv_utilization(self) -> float:
        """Highest KV-block occupancy across the fleet's engines (0..1).

        The max, not the mean: one saturated replica is already preempting
        and throttles should react to it even while its siblings are idle.
        """
        utilization = 0.0
        for engine in self.cluster.engines:
            utilization = max(utilization, engine.kv_utilization())
        return utilization

    def pending_per_active_replica(self) -> float:
        """Requests enqueued fleet-wide per replica currently taking traffic."""
        return self.cluster.num_pending_requests / max(self.active_replicas(), 1)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class AdmissionPolicy:
    """Decides, per arriving request, whether the fleet takes on the work.

    Lifecycle hooks: :meth:`decide` is called once per offer (and once per
    re-offer of a delayed request); :meth:`admit` / :meth:`release` bracket an
    admitted request's execution (slot accounting); :meth:`observe` sees every
    completion fleet-wide regardless of class (latency telemetry for
    SLO-tracking policies); :meth:`retry_at` tells the driver when a delayed
    request should be re-offered spontaneously (``None`` = only when a
    completion frees capacity).

    Tenant-aware policies set ``tenant_aware = True`` and accept the
    arrival's tenant as a third positional argument to ``decide`` /
    ``admit`` / ``release``; the controller checks the flag before passing
    it, so the base two-argument signature stays valid for every existing
    policy.
    """

    name = "base"
    #: When True, the controller passes the arrival's Tenant to
    #: decide/admit/release as an extra argument.
    tenant_aware = False

    def decide(self, now: float, traffic_class: Optional[str]) -> str:
        raise NotImplementedError

    def admit(self, now: float, traffic_class: Optional[str]) -> None:
        """An offered or re-offered request was admitted (slot bookkeeping)."""

    def release(self, now: float, traffic_class: Optional[str]) -> None:
        """A request this policy admitted finished (slot bookkeeping)."""

    def observe(
        self,
        now: float,
        traffic_class: Optional[str],
        latency: float,
        output_tokens: int,
    ) -> None:
        """A request completed somewhere in the fleet (any traffic class)."""

    def retry_at(self, now: float) -> Optional[float]:
        """Absolute time at which a delayed request should be re-offered."""
        return None


class UnlimitedAdmission(AdmissionPolicy):
    """The open door: every request is admitted immediately (the default policy)."""

    name = "unlimited"

    def decide(self, now: float, traffic_class: Optional[str]) -> str:
        return ADMIT


class ConcurrencyAdmission(AdmissionPolicy):
    """At most ``max_concurrency`` in-flight requests; excess wait at the door.

    Event-for-event identical to the historical enforced door gate:
    arrivals beyond the cap join a FIFO door queue and are admitted, oldest
    first, as completions free slots.
    """

    name = "concurrency"

    def __init__(self, max_concurrency: int):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.max_concurrency = max_concurrency
        self.in_flight = 0

    def decide(self, now: float, traffic_class: Optional[str]) -> str:
        return ADMIT if self.in_flight < self.max_concurrency else DELAY

    def admit(self, now: float, traffic_class: Optional[str]) -> None:
        self.in_flight += 1

    def release(self, now: float, traffic_class: Optional[str]) -> None:
        self.in_flight -= 1


class TokenBucketAdmission(AdmissionPolicy):
    """Rate + burst limiting: ``burst`` tokens, refilled at ``rate_qps``.

    The bucket starts full and refills continuously (lazily, on every
    consultation).  Each admission consumes one token; with the bucket empty
    the request is delayed until the next token accrues
    (``overload_action="delay"``) or shed (``"reject"``).
    """

    name = "token-bucket"

    #: Tolerance below one whole token still counted as admittable; absorbs
    #: the float error of ``now + deficit/rate`` retry arithmetic (without it
    #: a retry could land a hair before the token accrues and re-arm itself
    #: at the same simulated instant forever).
    EPSILON = 1e-9

    def __init__(self, rate_qps: float, burst: int = 1, overload_action: str = "delay"):
        if rate_qps <= 0:
            raise ValueError("token-bucket rate_qps must be > 0")
        if burst < 1:
            raise ValueError("token-bucket burst must be >= 1")
        if overload_action not in (DELAY, REJECT):
            raise ValueError(
                f"token-bucket overload_action must be {DELAY!r} or {REJECT!r}"
            )
        self.rate_qps = rate_qps
        self.burst = burst
        self.overload_action = overload_action
        self.tokens = float(burst)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(
                float(self.burst), self.tokens + (now - self._last_refill) * self.rate_qps
            )
            self._last_refill = now

    def decide(self, now: float, traffic_class: Optional[str]) -> str:
        self._refill(now)
        if self.tokens >= 1.0 - self.EPSILON:
            self.tokens = max(0.0, self.tokens - 1.0)
            return ADMIT
        return self.overload_action

    def retry_at(self, now: float) -> Optional[float]:
        """When the next whole token accrues (re-offer time for delays).

        ``None`` in reject mode: an over-rate request is shed on the spot,
        nothing ever waits for a refill.
        """
        if self.overload_action == REJECT:
            return None
        self._refill(now)
        deficit = max(0.0, 1.0 - self.tokens)
        return now + deficit / self.rate_qps


class SloShedAdmission(AdmissionPolicy):
    """Deadline-aware shedding with hysteresis.

    The projection a decision is based on is
    ``rolling_p95 + backlog_drain_seconds``: the p95 of end-to-end latencies
    of requests completed within the trailing ``window_s`` (restricted to
    ``protect_class`` when set -- that is the class whose SLO this gate
    protects), plus the time the fleet needs to drain its current backlog of
    predictor-estimated decode tokens at its recently sustained decode rate.

    Hysteresis: shedding engages when the projection exceeds
    ``slo_p95_s * enter_factor`` and disengages only when it falls below
    ``slo_p95_s * exit_factor`` (``exit_factor <= enter_factor``), recorded
    in :attr:`transitions` as ``(time, shed_active)`` pairs.

    **Cooperative mode** (``cooperative=True``) couples the gate to the
    autoscaler instead of fighting it: the backlog-drain half of the
    projection is priced at the decode rate the fleet will sustain once
    in-flight scale-ups land within ``horizon_s``
    (:meth:`ClusterLoadProbe.projected_drain_seconds`), so the gate sheds
    only when warm replicas cannot catch up in time -- and un-sheds as they
    arrive, because each landing replica both raises the realised decode
    rate and leaves the warming count behind.

    While shedding, requests routed to this policy are rejected
    (``overload_action="reject"``, the default) or held at the door and
    re-offered every ``retry_interval_s`` (``"delay"``, the deprioritising
    variant).
    """

    name = "slo-shed"

    def __init__(
        self,
        slo_p95_s: float,
        window_s: float = 30.0,
        enter_factor: float = 1.0,
        exit_factor: float = 0.8,
        protect_class: Optional[str] = None,
        overload_action: str = "reject",
        load_probe: Optional[ClusterLoadProbe] = None,
        retry_interval_s: Optional[float] = None,
        cooperative: bool = False,
        horizon_s: float = 10.0,
    ):
        if slo_p95_s <= 0:
            raise ValueError("slo-shed slo_p95_s must be > 0")
        if window_s <= 0:
            raise ValueError("slo-shed window_s must be > 0")
        if not 0 < exit_factor <= enter_factor:
            raise ValueError("slo-shed needs 0 < exit_factor <= enter_factor")
        if overload_action not in (DELAY, REJECT):
            raise ValueError(
                f"slo-shed overload_action must be {DELAY!r} or {REJECT!r}"
            )
        if horizon_s <= 0:
            raise ValueError("slo-shed horizon_s must be > 0")
        self.slo_p95_s = slo_p95_s
        self.window_s = window_s
        self.enter_factor = enter_factor
        self.exit_factor = exit_factor
        self.protect_class = protect_class
        self.overload_action = overload_action
        self.load_probe = load_probe
        self.cooperative = cooperative
        self.horizon_s = horizon_s
        self.retry_interval_s = (
            window_s / 4.0 if retry_interval_s is None else retry_interval_s
        )
        self.shed_active = False
        #: (time, shed_active) hysteresis transitions, oldest first.
        self.transitions: List[Tuple[float, bool]] = []
        self._completions: Deque[Tuple[float, float]] = deque()
        # Projection memo for one simulated instant: a burst landing at the
        # same time (or a drain loop re-offering queued requests) pays for
        # the O(backlog) fleet scan once, not once per request.  Invalidated
        # by any completion (which moves both window and backlog).
        self._projection_memo: Optional[Tuple[float, float]] = None

    # -- telemetry ----------------------------------------------------------
    def observe(
        self,
        now: float,
        traffic_class: Optional[str],
        latency: float,
        output_tokens: int,
    ) -> None:
        # Any completion changes both the rolling window and the backlog.
        self._projection_memo = None
        if self.protect_class is not None and traffic_class != self.protect_class:
            return
        self._completions.append((now, latency))

    def rolling_p95(self, now: float) -> float:
        """p95 of protected-class latencies completed within the window."""
        cutoff = now - self.window_s
        while self._completions and self._completions[0][0] < cutoff:
            self._completions.popleft()
        return percentile([latency for _, latency in self._completions], 95.0)

    def projected_p95(self, now: float) -> float:
        """Latency a newly admitted protected request is projected to see.

        Cooperative gates project at the *forecast horizon*: the backlog is
        drained at the decode rate the fleet will sustain once in-flight
        scale-ups land, so capacity already bought is not shed against.
        """
        memo = self._projection_memo
        if memo is not None and memo[0] == now:
            return memo[1]
        projection = self.rolling_p95(now)
        if self.load_probe is not None:
            if self.cooperative:
                projection += self.load_probe.projected_drain_seconds(
                    now, self.window_s, self.horizon_s
                )
            else:
                projection += self.load_probe.backlog_drain_seconds(now, self.window_s)
        self._projection_memo = (now, projection)
        return projection

    # -- decisions ----------------------------------------------------------
    def decide(self, now: float, traffic_class: Optional[str]) -> str:
        projected = self.projected_p95(now)
        if self.shed_active:
            if projected <= self.slo_p95_s * self.exit_factor:
                self.shed_active = False
                self.transitions.append((now, False))
        elif projected > self.slo_p95_s * self.enter_factor:
            self.shed_active = True
            self.transitions.append((now, True))
        if self.shed_active:
            return self.overload_action
        return ADMIT

    def retry_at(self, now: float) -> Optional[float]:
        if self.overload_action != DELAY:
            return None
        return now + self.retry_interval_s


class OITThrottleAdmission(AdmissionPolicy):
    """Interaction-aware per-tenant overload throttling (``oit-throttle``).

    Two rolling admission windows -- per user (``user_rpm``) and per app
    (``app_rpm``), each a requests-per-minute allowance pro-rated over
    ``window_s`` -- guard the door, but only while the cluster is actually
    under pressure: KV-block utilisation at or above ``kv_threshold`` on any
    engine, or the fleet's pending queue at or above ``queue_threshold``
    requests per active replica (both read through the shared
    :class:`ClusterLoadProbe`; with no probe the throttle never bites).
    Off-pressure, heavy tenants run free -- the point of throttling on
    *interaction* state rather than rate alone.

    Interaction protection: a tenant with a request already in flight is
    always admitted, whatever its windows say, so a multi-request
    interaction that started before the overload is never severed halfway.
    Untenanted arrivals are always admitted (there is nobody to attribute
    them to).

    Over-allowance requests are shed (``overload_action="reject"``, the
    default) or held at the door and re-offered every ``retry_interval_s``
    (``"delay"``).
    """

    name = "oit-throttle"
    tenant_aware = True

    def __init__(
        self,
        user_rpm: Optional[float] = 60.0,
        app_rpm: Optional[float] = None,
        window_s: float = 60.0,
        kv_threshold: float = 0.85,
        queue_threshold: float = 4.0,
        overload_action: str = "reject",
        load_probe: Optional[ClusterLoadProbe] = None,
        retry_interval_s: Optional[float] = None,
    ):
        if user_rpm is None and app_rpm is None:
            raise ValueError("oit-throttle needs user_rpm and/or app_rpm")
        if user_rpm is not None and user_rpm <= 0:
            raise ValueError("oit-throttle user_rpm must be > 0 (or None)")
        if app_rpm is not None and app_rpm <= 0:
            raise ValueError("oit-throttle app_rpm must be > 0 (or None)")
        if window_s <= 0:
            raise ValueError("oit-throttle window_s must be > 0")
        if not 0 < kv_threshold <= 1:
            raise ValueError("oit-throttle kv_threshold must be in (0, 1]")
        if queue_threshold <= 0:
            raise ValueError("oit-throttle queue_threshold must be > 0")
        if overload_action not in (DELAY, REJECT):
            raise ValueError(
                f"oit-throttle overload_action must be {DELAY!r} or {REJECT!r}"
            )
        self.user_rpm = user_rpm
        self.app_rpm = app_rpm
        self.window_s = window_s
        self.kv_threshold = kv_threshold
        self.queue_threshold = queue_threshold
        self.overload_action = overload_action
        self.load_probe = load_probe
        self.retry_interval_s = (
            window_s / 4.0 if retry_interval_s is None else retry_interval_s
        )
        #: Admission timestamps per user / app key (pruned to the window).
        self._user_windows: Dict[str, Deque[float]] = {}
        self._app_windows: Dict[str, Deque[float]] = {}
        #: In-flight request count per user (the interaction signal).
        self._in_flight: Dict[str, int] = {}
        #: Throttle decisions taken (telemetry).
        self.throttled = 0

    # -- signals -------------------------------------------------------------
    def under_pressure(self, now: float) -> bool:
        """True while the cluster justifies throttling anyone at all."""
        probe = self.load_probe
        if probe is None:
            return False
        if probe.kv_utilization() >= self.kv_threshold:
            return True
        return probe.pending_per_active_replica() >= self.queue_threshold

    def _allowance(self, rpm: float) -> int:
        """Admissions permitted inside one rolling window (at least one)."""
        return max(1, int(rpm * self.window_s / 60.0))

    def _window_full(
        self, windows: Dict[str, Deque[float]], key: str, now: float, rpm: float
    ) -> bool:
        window = windows.get(key)
        if window is None:
            return False
        cutoff = now - self.window_s
        while window and window[0] <= cutoff:
            window.popleft()
        return len(window) >= self._allowance(rpm)

    # -- decisions -----------------------------------------------------------
    def decide(self, now: float, traffic_class: Optional[str], tenant=None) -> str:
        if tenant is None:
            return ADMIT
        if self._in_flight.get(tenant.user, 0) > 0:
            # Never sever an in-progress interaction.
            return ADMIT
        if not self.under_pressure(now):
            return ADMIT
        over_user = self.user_rpm is not None and self._window_full(
            self._user_windows, tenant.user, now, self.user_rpm
        )
        over_app = self.app_rpm is not None and self._window_full(
            self._app_windows, tenant.app, now, self.app_rpm
        )
        if over_user or over_app:
            self.throttled += 1
            return self.overload_action
        return ADMIT

    def admit(self, now: float, traffic_class: Optional[str], tenant=None) -> None:
        if tenant is None:
            return
        self._user_windows.setdefault(tenant.user, deque()).append(now)
        self._app_windows.setdefault(tenant.app, deque()).append(now)
        self._in_flight[tenant.user] = self._in_flight.get(tenant.user, 0) + 1

    def release(self, now: float, traffic_class: Optional[str], tenant=None) -> None:
        if tenant is None:
            return
        remaining = self._in_flight.get(tenant.user, 0) - 1
        if remaining > 0:
            self._in_flight[tenant.user] = remaining
        else:
            self._in_flight.pop(tenant.user, None)

    def retry_at(self, now: float) -> Optional[float]:
        if self.overload_action != DELAY:
            return None
        return now + self.retry_interval_s


ADMISSION_POLICY_REGISTRY = PolicyRegistry("admission policy")
#: name -> class mapping (keys are lower-case); kept for membership checks.
ADMISSION_POLICIES: Dict[str, Type[AdmissionPolicy]] = ADMISSION_POLICY_REGISTRY.policies


def register_admission_policy(
    policy_class: Type[AdmissionPolicy],
) -> Type[AdmissionPolicy]:
    """Register a policy class under its ``name`` (also usable as a decorator)."""
    return ADMISSION_POLICY_REGISTRY.register(policy_class)


register_admission_policy(UnlimitedAdmission)
register_admission_policy(ConcurrencyAdmission)
register_admission_policy(TokenBucketAdmission)
register_admission_policy(SloShedAdmission)
register_admission_policy(OITThrottleAdmission)


def available_admission_policies() -> List[str]:
    return ADMISSION_POLICY_REGISTRY.available()


def build_admission_policy(
    name: str,
    *,
    max_concurrency: Optional[int] = None,
    rate_qps: Optional[float] = None,
    burst: int = 1,
    overload_action: str = "",
    slo_p95_s: Optional[float] = None,
    window_s: float = 30.0,
    enter_factor: float = 1.0,
    exit_factor: float = 0.8,
    protect_class: Optional[str] = None,
    load_probe: Optional[ClusterLoadProbe] = None,
    cooperative: bool = False,
    horizon_s: float = 10.0,
    user_rpm: Optional[float] = None,
    app_rpm: Optional[float] = None,
    kv_threshold: float = 0.85,
    queue_threshold: float = 4.0,
) -> AdmissionPolicy:
    """Instantiate a registered admission policy from declarative parameters.

    ``overload_action=""`` picks the policy's default (token-bucket delays,
    slo-shed rejects).  Raises :class:`ValueError` for unknown names or
    missing required parameters.
    """
    key = name.lower()
    if key not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission policy {name!r}; known: {available_admission_policies()}"
        )
    if key == "unlimited":
        return UnlimitedAdmission()
    if key == "concurrency":
        if max_concurrency is None:
            raise ValueError("admission policy 'concurrency' requires max_concurrency")
        return ConcurrencyAdmission(max_concurrency)
    if key == "token-bucket":
        if rate_qps is None:
            raise ValueError("admission policy 'token-bucket' requires rate_qps")
        return TokenBucketAdmission(rate_qps, burst, overload_action or DELAY)
    if key == "slo-shed":
        if slo_p95_s is None:
            raise ValueError(
                "admission policy 'slo-shed' requires an SLO (slo_p95_s on the "
                "admission spec, or one declared in MeasurementSpec)"
            )
        return SloShedAdmission(
            slo_p95_s,
            window_s=window_s,
            enter_factor=enter_factor,
            exit_factor=exit_factor,
            protect_class=protect_class,
            overload_action=overload_action or REJECT,
            load_probe=load_probe,
            cooperative=cooperative,
            horizon_s=horizon_s,
        )
    if key == "oit-throttle":
        return OITThrottleAdmission(
            # A spec leaving both unset gets the per-user default allowance.
            user_rpm=user_rpm if (user_rpm is not None or app_rpm is not None) else 60.0,
            app_rpm=app_rpm,
            window_s=window_s,
            kv_threshold=kv_threshold,
            queue_threshold=queue_threshold,
            overload_action=overload_action or REJECT,
            load_probe=load_probe,
        )
    # Externally registered policies are built with their default
    # constructor; parameterise them by registering a pre-configured class.
    return ADMISSION_POLICY_REGISTRY.create(name)


# ---------------------------------------------------------------------------
# Controller: per-class policy table + accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassAdmissionStats:
    """Door-level accounting for one traffic class over a serving run."""

    label: str
    offered: int
    admitted: int
    delayed: int
    rejected: int
    shed_tokens: float

    @property
    def rejection_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    def as_dict(self) -> Dict[str, object]:
        return {
            "class": self.label or "(all)",
            "offered": self.offered,
            "admitted": self.admitted,
            "delayed": self.delayed,
            "rejected": self.rejected,
            "rejection_rate": self.rejection_rate,
            "shed_tokens": self.shed_tokens,
        }


class _Counts:
    __slots__ = (
        "offered",
        "admitted",
        "delayed",
        "rejected",
        "completed",
        "output_tokens",
    )

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.delayed = 0
        self.rejected = 0
        self.completed = 0
        self.output_tokens = 0


class AdmissionController:
    """Routes door decisions to per-traffic-class policies and keeps the books.

    ``class_policies`` maps traffic-class labels to policy instances; classes
    without an entry use ``default_policy``.  ``class_pools`` maps labels to
    the :class:`~repro.serving.cluster.ReplicaPool` that would have served the
    class, so rejections and shed tokens are also attributed per pool
    (``default_pool`` catches unmapped classes).

    Shed-token estimates: a rejected request never runs, so the decode tokens
    it would have cost are estimated from the mean output tokens of completed
    requests of the same class (falling back to the all-class mean).  The
    estimate is computed lazily -- at reporting time, from the whole run's
    completions -- so requests shed before the first completion are still
    priced.
    """

    def __init__(
        self,
        default_policy: AdmissionPolicy,
        class_policies: Optional[Dict[str, AdmissionPolicy]] = None,
        class_pools: Optional[Dict[str, object]] = None,
        default_pool: Optional[object] = None,
    ):
        self.default_policy = default_policy
        self.class_policies = dict(class_policies or {})
        self.class_pools = dict(class_pools or {})
        self.default_pool = default_pool
        self._counts: Dict[str, _Counts] = {}
        # Per-tenant [offered, rejected] door totals (Tenant is frozen and
        # hashable); feeds the per-run fairness report.
        self._tenant_counts: Dict[object, List[int]] = {}
        # Per-pool rejection labels of the current run (lazy shed pricing):
        # id(pool) -> (pool, {label: rejections}); base = shed_tokens carried
        # over from previous runs on the same system.
        self._pool_rejections: Dict[int, Tuple[object, Dict[str, int]]] = {}
        self._pool_shed_base: Dict[int, float] = {}
        # Unique policy instances, default first (observation fan-out order).
        self.policies: List[AdmissionPolicy] = [default_policy]
        for policy in self.class_policies.values():
            if all(policy is not seen for seen in self.policies):
                self.policies.append(policy)

    # -- lookup -------------------------------------------------------------
    def policy_for(self, traffic_class: Optional[str]) -> AdmissionPolicy:
        if traffic_class is not None and traffic_class in self.class_policies:
            return self.class_policies[traffic_class]
        return self.default_policy

    def _counts_for(self, traffic_class: Optional[str]) -> _Counts:
        key = UNLABELLED if traffic_class is None else traffic_class
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = _Counts()
        return counts

    def _pool_for(self, traffic_class: Optional[str]):
        # Pool traffic-class declarations are normalised to lower case by
        # ReplicaPool, so attribute rejections case-insensitively.
        if traffic_class is not None and traffic_class.lower() in self.class_pools:
            return self.class_pools[traffic_class.lower()]
        return self.default_pool

    # -- tenant-aware dispatch ----------------------------------------------
    @staticmethod
    def _decide(policy: AdmissionPolicy, now, traffic_class, tenant) -> str:
        if getattr(policy, "tenant_aware", False):
            return policy.decide(now, traffic_class, tenant)
        return policy.decide(now, traffic_class)

    @staticmethod
    def _admit(policy: AdmissionPolicy, now, traffic_class, tenant) -> None:
        if getattr(policy, "tenant_aware", False):
            policy.admit(now, traffic_class, tenant)
        else:
            policy.admit(now, traffic_class)

    @staticmethod
    def _release(policy: AdmissionPolicy, now, traffic_class, tenant) -> None:
        if getattr(policy, "tenant_aware", False):
            policy.release(now, traffic_class, tenant)
        else:
            policy.release(now, traffic_class)

    def _tenant_counts_for(self, tenant) -> Optional[List[int]]:
        if tenant is None:
            return None
        counts = self._tenant_counts.get(tenant)
        if counts is None:
            counts = self._tenant_counts[tenant] = [0, 0]
        return counts

    def tenant_counts(self) -> Dict[object, Tuple[int, int]]:
        """Per-tenant ``(offered, rejected)`` door totals for this run."""
        return {
            tenant: (offered, rejected)
            for tenant, (offered, rejected) in self._tenant_counts.items()
        }

    # -- decisions ----------------------------------------------------------
    def offer(
        self, now: float, traffic_class: Optional[str], tenant=None
    ) -> str:
        """First consultation for an arriving request; counts it as offered."""
        counts = self._counts_for(traffic_class)
        counts.offered += 1
        tenant_counts = self._tenant_counts_for(tenant)
        if tenant_counts is not None:
            tenant_counts[0] += 1
        policy = self.policy_for(traffic_class)
        decision = self._decide(policy, now, traffic_class, tenant)
        if decision == ADMIT:
            counts.admitted += 1
            self._admit(policy, now, traffic_class, tenant)
        elif decision == DELAY:
            counts.delayed += 1
        else:
            self._record_rejection(traffic_class, counts, tenant)
        return decision

    def readmit(
        self, now: float, traffic_class: Optional[str], tenant=None
    ) -> str:
        """Re-offer a request already waiting at the door (no offered count)."""
        counts = self._counts_for(traffic_class)
        policy = self.policy_for(traffic_class)
        decision = self._decide(policy, now, traffic_class, tenant)
        if decision == ADMIT:
            counts.admitted += 1
            self._admit(policy, now, traffic_class, tenant)
        elif decision == REJECT:
            self._record_rejection(traffic_class, counts, tenant)
        return decision

    def _record_rejection(
        self, traffic_class: Optional[str], counts: _Counts, tenant=None
    ) -> None:
        counts.rejected += 1
        tenant_counts = self._tenant_counts_for(tenant)
        if tenant_counts is not None:
            tenant_counts[1] += 1
        pool = self._pool_for(traffic_class)
        if pool is not None:
            pool.rejected_requests += 1
            key = id(pool)
            entry = self._pool_rejections.get(key)
            if entry is None:
                entry = self._pool_rejections[key] = (pool, {})
                self._pool_shed_base.setdefault(key, pool.shed_tokens)
            label = UNLABELLED if traffic_class is None else traffic_class
            entry[1][label] = entry[1].get(label, 0) + 1

    def on_complete(
        self,
        now: float,
        traffic_class: Optional[str],
        latency: float,
        output_tokens: int,
        tenant=None,
    ) -> None:
        """A worker finished: free its slot and feed latency telemetry."""
        counts = self._counts_for(traffic_class)
        counts.completed += 1
        counts.output_tokens += output_tokens
        self._release(self.policy_for(traffic_class), now, traffic_class, tenant)
        for policy in self.policies:
            policy.observe(now, traffic_class, latency, output_tokens)

    def on_turn_complete(
        self,
        now: float,
        traffic_class: Optional[str],
        latency: float,
        output_tokens: int,
        tenant=None,
    ) -> None:
        """A non-final session turn finished: telemetry only, no release.

        A multi-turn session is *one* interaction at the door: it is offered
        (and counted, and slot-accounted) exactly once, at its first turn,
        and its slot -- including ``oit-throttle``'s per-user in-flight
        protection -- is held across every think-time gap until the final
        turn completes through :meth:`on_complete`.  Later turns therefore
        never consult :meth:`AdmissionPolicy.decide` and can never be
        delayed or rejected: no policy can sever a conversation mid-way.
        Turn latencies still feed :meth:`AdmissionPolicy.observe` so
        SLO-tracking policies see every completion.
        """
        counts = self._counts_for(traffic_class)
        counts.completed += 1
        counts.output_tokens += output_tokens
        for policy in self.policies:
            policy.observe(now, traffic_class, latency, output_tokens)

    # -- estimates & reporting ----------------------------------------------
    def estimated_task_tokens(self, traffic_class: Optional[str]) -> float:
        """Mean output tokens of completed same-class requests (see class doc)."""
        counts = self._counts.get(
            UNLABELLED if traffic_class is None else traffic_class
        )
        if counts is not None and counts.completed > 0:
            return counts.output_tokens / counts.completed
        completed = sum(c.completed for c in self._counts.values())
        if completed > 0:
            tokens = sum(c.output_tokens for c in self._counts.values())
            return tokens / completed
        return 0.0

    @property
    def total_rejected(self) -> int:
        return sum(counts.rejected for counts in self._counts.values())

    def finalize_shed_estimates(self) -> None:
        """Price each pool's rejections at the run's final class token means.

        Idempotent: recomputes ``pool.shed_tokens`` from the base carried
        into this run plus the current estimates.
        """
        for key, (pool, by_label) in self._pool_rejections.items():
            base = self._pool_shed_base.get(key, 0.0)
            pool.shed_tokens = base + sum(
                count * self.estimated_task_tokens(label or None)
                for label, count in by_label.items()
            )

    def class_stats(self) -> Dict[str, ClassAdmissionStats]:
        """Frozen per-class snapshot of the door accounting."""
        return {
            label: ClassAdmissionStats(
                label=label,
                offered=counts.offered,
                admitted=counts.admitted,
                delayed=counts.delayed,
                rejected=counts.rejected,
                shed_tokens=counts.rejected
                * self.estimated_task_tokens(label or None),
            )
            for label, counts in self._counts.items()
        }

    def reset_counts(self) -> None:
        """Clear per-run accounting (policy state -- buckets, windows -- persists)."""
        self._counts.clear()
        self._tenant_counts.clear()
        self._pool_rejections.clear()
        self._pool_shed_base.clear()
