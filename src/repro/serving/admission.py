"""SLO-aware admission control: pluggable door policies for the serving fleet.

A policy sees every request the moment it arrives at the serving system --
*before* any work is enqueued on a replica pool -- and answers with one of
three decisions:

* ``admit``  -- spawn the request's worker immediately,
* ``delay``  -- hold the request at the door until it is re-offered (when a
  completion frees capacity, or at the policy's :meth:`~AdmissionPolicy.retry_at`),
* ``reject`` -- shed the request: it never runs, and the fleet records the
  rejection and the decode tokens it avoided.

An experiment declares its door with an :class:`AdmissionSpec`, and every
registered policy is built from one as ``ADMISSION_POLICIES[name](spec,
probe)``: the spec is the one place a policy parameter is declared,
defaulted and validated, and the shared :class:`ClusterLoadProbe` gives
the policy its fleet load signals.  The built-in policies are
:class:`UnlimitedAdmission`, :class:`ConcurrencyAdmission`,
:class:`TokenBucketAdmission`, :class:`SloShedAdmission` and
:class:`OITThrottleAdmission`; each class describes its own rule and the
spec fields it reads.

Policies are consulted per traffic class through the
:class:`AdmissionController`, which owns the per-class policy table and all
accounting (offered/admitted/delayed/rejected counts and shed-token
estimates, also attributed to the replica pool that would have served the
request).  This is how a chat SLO sheds *agent* load: route the agent class
to an ``slo-shed`` policy whose ``protect_class`` is the chat class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import ClassVar, Deque, Dict, List, Optional, Tuple, Type

from repro.core.metrics import percentile
from repro.registry import PolicyRegistry

#: Decision vocabulary returned by :meth:`AdmissionPolicy.decide`.
ADMIT = "admit"
DELAY = "delay"
REJECT = "reject"

#: Stats key under which requests without a traffic class are accounted.
UNLABELLED = ""


@dataclass(frozen=True)
class AdmissionSpec:
    """Which admission policy guards the serving door, per traffic class.

    ``policy`` names a registered policy; the other fields parameterise it,
    and each policy class lists the ones it reads in ``READS``.
    Construction rejects a field, other than ``policy`` and ``per_class``,
    that is set away from its default but not read by the chosen policy, a
    ``concurrency`` gate without a cap and a ``token-bucket`` without a
    rate.  On ``slo-shed``, ``slo_p95_s=None`` inherits the SLO the
    experiment's :class:`~repro.api.spec.MeasurementSpec` declares for
    ``protect_class``, and ``cooperative=True`` needs an autoscaler on the
    experiment (both checked by :class:`~repro.api.spec.ExperimentSpec`).

    ``per_class`` overrides the policy per traffic class:
    ``(("agent", AdmissionSpec(policy="slo-shed", protect_class="chat")),)``
    sheds agent load whenever chat's SLO projection degrades, while chat
    itself stays on the default policy.  Overrides cannot nest further.
    """

    policy: str = "unlimited"
    max_concurrency: Optional[int] = None
    rate_qps: Optional[float] = None
    burst: int = 1
    overload_action: str = ""
    slo_p95_s: Optional[float] = None
    protect_class: str = ""
    window_s: float = 30.0
    enter_factor: float = 1.0
    exit_factor: float = 0.8
    cooperative: bool = False
    user_rpm: Optional[float] = None
    app_rpm: Optional[float] = None
    kv_threshold: float = 0.85
    queue_threshold: float = 4.0
    per_class: Tuple[Tuple[str, "AdmissionSpec"], ...] = ()

    def __post_init__(self) -> None:
        if self.policy.lower() not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r}; "
                f"known: {available_admission_policies()}"
            )
        reads = ADMISSION_POLICIES[self.policy.lower()].READS
        for spec_field in fields(self):
            if spec_field.name not in ("policy", "per_class", *reads) and (
                getattr(self, spec_field.name) != spec_field.default
            ):
                raise ValueError(
                    f"admission policy {self.policy!r} does not take {spec_field.name}"
                )
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError("admission max_concurrency must be >= 1 (or None)")
        if self.policy.lower() == "concurrency" and self.max_concurrency is None:
            raise ValueError("admission policy 'concurrency' needs max_concurrency")
        if self.policy.lower() == "token-bucket":
            if self.rate_qps is None or self.rate_qps <= 0:
                raise ValueError("token-bucket admission requires rate_qps > 0")
        if self.burst < 1:
            raise ValueError("admission burst must be >= 1")
        if self.overload_action not in ("", DELAY, REJECT):
            raise ValueError(
                "admission overload_action must be '', 'delay', or 'reject'"
            )
        if self.slo_p95_s is not None and self.slo_p95_s <= 0:
            raise ValueError("admission slo_p95_s must be > 0 (or None)")
        if self.window_s <= 0:
            raise ValueError("admission window_s must be > 0")
        if self.user_rpm is not None and self.user_rpm <= 0:
            raise ValueError("admission user_rpm must be > 0 (or None)")
        if self.app_rpm is not None and self.app_rpm <= 0:
            raise ValueError("admission app_rpm must be > 0 (or None)")
        if not 0 < self.kv_threshold <= 1:
            raise ValueError("admission kv_threshold must be in (0, 1]")
        if self.queue_threshold <= 0:
            raise ValueError("admission queue_threshold must be > 0")
        if not 0 < self.exit_factor <= self.enter_factor:
            raise ValueError("admission needs 0 < exit_factor <= enter_factor")
        if not isinstance(self.per_class, tuple) or any(
            not isinstance(entry, tuple) for entry in self.per_class
        ):
            object.__setattr__(
                self, "per_class", tuple(tuple(entry) for entry in self.per_class)
            )
        labels = [label for label, _ in self.per_class]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate per_class admission labels: {labels}")
        for label, override in self.per_class:
            if not label:
                raise ValueError("per_class admission labels must be non-empty")
            if not isinstance(override, AdmissionSpec):
                raise ValueError(
                    f"per_class admission for {label!r} must be an AdmissionSpec"
                )
            if override.per_class:
                raise ValueError("per_class admission overrides cannot nest")

    @property
    def overload_decision(self) -> str:
        """What an over-limit request gets: ``overload_action``, or when it
        is unset ``delay`` for ``token-bucket`` and ``reject`` for the others."""
        if self.overload_action:
            return self.overload_action
        return DELAY if self.policy.lower() == "token-bucket" else REJECT

    @property
    def rpm_limits(self) -> Tuple[Optional[float], Optional[float]]:
        """``oit-throttle``'s (per-user, per-app) requests-per-minute
        allowances: 60 per user when neither is set."""
        if self.user_rpm is None and self.app_rpm is None:
            return 60.0, None
        return self.user_rpm, self.app_rpm


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
    project how long newly admitted work would wait.  ``horizon_s`` is the
    experiment autoscaler's look-ahead (``None`` without one): the window
    within which :meth:`projected_drain_seconds` credits in-flight
    scale-ups.
    """

    def __init__(self, cluster, horizon_s: Optional[float] = None):
        self.cluster = cluster
        self.horizon_s = horizon_s

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

    def projected_drain_seconds(self, now: float, window_s: float) -> float:
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
        landing = self.warming_replicas_within(now, self.horizon_s)
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

    Every policy is built as ``cls(spec, probe)`` and reads its parameters
    off ``self.spec``; ``READS`` names the :class:`AdmissionSpec` fields it
    reads, and a spec that sets any other away from its default is
    rejected.  Lifecycle hooks: :meth:`decide` is called once per
    offer (and once per re-offer of a delayed request); :meth:`admit` /
    :meth:`release` bracket an admitted request's execution (slot
    accounting); :meth:`observe` sees every completion fleet-wide regardless
    of class (latency telemetry for SLO-tracking policies); :meth:`retry_at`
    tells the driver when a delayed request should be re-offered
    spontaneously (``None`` = only when a completion frees capacity).
    ``tenant`` is the arrival's :class:`~repro.serving.tenants.Tenant`, or
    ``None`` for untenanted traffic.
    """

    name = "base"
    READS: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, spec: AdmissionSpec, probe: ClusterLoadProbe):
        self.spec = spec
        self.probe = probe

    def decide(self, now: float, traffic_class: Optional[str], tenant) -> str:
        raise NotImplementedError

    def admit(self, now: float, traffic_class: Optional[str], tenant) -> None:
        """An offered or re-offered request was admitted (slot bookkeeping)."""

    def release(self, now: float, traffic_class: Optional[str], tenant) -> None:
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

    def decide(self, now: float, traffic_class: Optional[str], tenant) -> str:
        return ADMIT


class ConcurrencyAdmission(AdmissionPolicy):
    """At most ``max_concurrency`` in-flight requests; excess wait at the door.

    Arrivals beyond the cap join a FIFO door queue and are admitted, oldest
    first, as completions free slots (golden-pinned in
    ``tests/test_admission.py``).
    """

    name = "concurrency"
    READS = ("max_concurrency",)

    def __init__(self, spec: AdmissionSpec, probe: ClusterLoadProbe):
        super().__init__(spec, probe)
        self.in_flight = 0

    def decide(self, now: float, traffic_class: Optional[str], tenant) -> str:
        return ADMIT if self.in_flight < self.spec.max_concurrency else DELAY

    def admit(self, now: float, traffic_class: Optional[str], tenant) -> None:
        self.in_flight += 1

    def release(self, now: float, traffic_class: Optional[str], tenant) -> None:
        self.in_flight -= 1


class TokenBucketAdmission(AdmissionPolicy):
    """Rate + burst limiting: ``burst`` tokens, refilled at ``rate_qps``.

    The bucket starts full and refills continuously (lazily, on every
    consultation).  Each admission consumes one token; with the bucket empty
    the request is delayed until the next token accrues (the default) or,
    with ``overload_action="reject"``, shed.
    """

    name = "token-bucket"
    READS = ("rate_qps", "burst", "overload_action")

    #: Tolerance below one whole token still counted as admittable; absorbs
    #: the float error of ``now + deficit/rate`` retry arithmetic (without it
    #: a retry could land a hair before the token accrues and re-arm itself
    #: at the same simulated instant forever).
    EPSILON = 1e-9

    def __init__(self, spec: AdmissionSpec, probe: ClusterLoadProbe):
        super().__init__(spec, probe)
        self.tokens = float(spec.burst)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(
                float(self.spec.burst),
                self.tokens + (now - self._last_refill) * self.spec.rate_qps,
            )
            self._last_refill = now

    def decide(self, now: float, traffic_class: Optional[str], tenant) -> str:
        self._refill(now)
        if self.tokens >= 1.0 - self.EPSILON:
            self.tokens = max(0.0, self.tokens - 1.0)
            return ADMIT
        return self.spec.overload_decision

    def retry_at(self, now: float) -> Optional[float]:
        """When the next whole token accrues (re-offer time for delays).

        ``None`` in reject mode: an over-rate request is shed on the spot,
        nothing ever waits for a refill.
        """
        if self.spec.overload_decision == REJECT:
            return None
        self._refill(now)
        deficit = max(0.0, 1.0 - self.tokens)
        return now + deficit / self.spec.rate_qps


class _WindowedAdmission(AdmissionPolicy):
    """A rolling-window policy: in delay mode it re-offers every ``window_s / 4``."""

    def retry_at(self, now: float) -> Optional[float]:
        if self.spec.overload_decision != DELAY:
            return None
        return now + self.spec.window_s / 4.0


class SloShedAdmission(_WindowedAdmission):
    """Deadline-aware shedding with hysteresis.

    The projection a decision is based on is
    ``rolling_p95 + backlog_drain_seconds``: the p95 of end-to-end latencies
    of requests completed within the trailing ``window_s`` (restricted to
    ``protect_class`` when set -- that is the class whose SLO this gate
    protects), plus the time the fleet needs to drain its current backlog of
    predictor-estimated decode tokens at its recently sustained decode rate.

    Hysteresis: shedding engages when the projection exceeds
    ``slo_p95_s * enter_factor`` and disengages only when it falls below
    ``slo_p95_s * exit_factor``, recorded in :attr:`transitions` as
    ``(time, shed_active)`` pairs.

    **Cooperative mode** (``cooperative=True``) couples the gate to the
    autoscaler instead of fighting it: the backlog-drain half of the
    projection is priced at the decode rate the fleet will sustain once
    in-flight scale-ups land within the autoscaler's ``horizon_s``
    (:meth:`ClusterLoadProbe.projected_drain_seconds`), so the gate sheds
    only when warm replicas cannot catch up in time -- and un-sheds as they
    arrive, because each landing replica both raises the realised decode
    rate and leaves the warming count behind.

    While shedding, requests routed to this policy are rejected (the
    default) or, with ``overload_action="delay"``, held at the door and
    re-offered every ``window_s / 4``.
    """

    name = "slo-shed"
    READS = (
        "slo_p95_s", "protect_class", "window_s", "enter_factor", "exit_factor",
        "cooperative", "overload_action",
    )

    def __init__(self, spec: AdmissionSpec, probe: ClusterLoadProbe):
        super().__init__(spec, probe)
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
        if self.spec.protect_class and traffic_class != self.spec.protect_class:
            return
        self._completions.append((now, latency))

    def rolling_p95(self, now: float) -> float:
        """p95 of protected-class latencies completed within the window."""
        cutoff = now - self.spec.window_s
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
        if self.spec.cooperative:
            projection += self.probe.projected_drain_seconds(now, self.spec.window_s)
        else:
            projection += self.probe.backlog_drain_seconds(now, self.spec.window_s)
        self._projection_memo = (now, projection)
        return projection

    # -- decisions ----------------------------------------------------------
    def decide(self, now: float, traffic_class: Optional[str], tenant) -> str:
        projected = self.projected_p95(now)
        slo = self.spec.slo_p95_s
        if self.shed_active:
            if projected <= slo * self.spec.exit_factor:
                self.shed_active = False
                self.transitions.append((now, False))
        elif projected > slo * self.spec.enter_factor:
            self.shed_active = True
            self.transitions.append((now, True))
        if self.shed_active:
            return self.spec.overload_decision
        return ADMIT


class OITThrottleAdmission(_WindowedAdmission):
    """Interaction-aware per-tenant overload throttling (``oit-throttle``).

    Two rolling admission windows -- per user (``user_rpm``) and per app
    (``app_rpm``), each a requests-per-minute allowance pro-rated over
    ``window_s``, 60 per user when neither is set -- guard the door, but
    only while the cluster is actually under pressure: KV-block utilisation
    at or above ``kv_threshold`` on any engine, or the fleet's pending queue
    at or above ``queue_threshold`` requests per active replica (both read
    through the shared :class:`ClusterLoadProbe`).  Off-pressure, heavy
    tenants run free -- the point of throttling on *interaction* state
    rather than rate alone.

    Interaction protection: a tenant with a request already in flight is
    always admitted, whatever its windows say, so a multi-request
    interaction that started before the overload is never severed halfway.
    Untenanted arrivals are always admitted (there is nobody to attribute
    them to).

    Over-allowance requests are shed (the default) or, with
    ``overload_action="delay"``, held at the door and re-offered every
    ``window_s / 4``.
    """

    name = "oit-throttle"
    READS = (
        "window_s", "user_rpm", "app_rpm", "kv_threshold", "queue_threshold",
        "overload_action",
    )

    def __init__(self, spec: AdmissionSpec, probe: ClusterLoadProbe):
        super().__init__(spec, probe)
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
        if self.probe.kv_utilization() >= self.spec.kv_threshold:
            return True
        return self.probe.pending_per_active_replica() >= self.spec.queue_threshold

    def _allowance(self, rpm: float) -> int:
        """Admissions permitted inside one rolling window (at least one)."""
        return max(1, int(rpm * self.spec.window_s / 60.0))

    def _window_full(
        self, windows: Dict[str, Deque[float]], key: str, now: float, rpm: float
    ) -> bool:
        window = windows.get(key)
        if window is None:
            return False
        cutoff = now - self.spec.window_s
        while window and window[0] <= cutoff:
            window.popleft()
        return len(window) >= self._allowance(rpm)

    # -- decisions -----------------------------------------------------------
    def decide(self, now: float, traffic_class: Optional[str], tenant) -> str:
        if tenant is None:
            return ADMIT
        if self._in_flight.get(tenant.user, 0) > 0:
            # Never sever an in-progress interaction.
            return ADMIT
        if not self.under_pressure(now):
            return ADMIT
        user_rpm, app_rpm = self.spec.rpm_limits
        over_user = user_rpm is not None and self._window_full(
            self._user_windows, tenant.user, now, user_rpm
        )
        over_app = app_rpm is not None and self._window_full(
            self._app_windows, tenant.app, now, app_rpm
        )
        if over_user or over_app:
            self.throttled += 1
            return self.spec.overload_decision
        return ADMIT

    def admit(self, now: float, traffic_class: Optional[str], tenant) -> None:
        if tenant is None:
            return
        self._user_windows.setdefault(tenant.user, deque()).append(now)
        self._app_windows.setdefault(tenant.app, deque()).append(now)
        self._in_flight[tenant.user] = self._in_flight.get(tenant.user, 0) + 1

    def release(self, now: float, traffic_class: Optional[str], tenant) -> None:
        if tenant is None:
            return
        remaining = self._in_flight.get(tenant.user, 0) - 1
        if remaining > 0:
            self._in_flight[tenant.user] = remaining
        else:
            self._in_flight.pop(tenant.user, None)


ADMISSION_POLICY_REGISTRY = PolicyRegistry("admission policy")
#: name -> class mapping (keys are lower-case); each class is built as
#: ``cls(spec, probe)``.
ADMISSION_POLICIES: Dict[str, Type[AdmissionPolicy]] = ADMISSION_POLICY_REGISTRY.policies


def register_admission_policy(
    policy_class: Type[AdmissionPolicy],
) -> Type[AdmissionPolicy]:
    """Register a policy class under its ``name`` (also usable as a decorator).

    The class is built as ``policy_class(spec, probe)`` from the
    :class:`AdmissionSpec` naming it and the fleet's :class:`ClusterLoadProbe`.
    """
    return ADMISSION_POLICY_REGISTRY.register(policy_class)


register_admission_policy(UnlimitedAdmission)
register_admission_policy(ConcurrencyAdmission)
register_admission_policy(TokenBucketAdmission)
register_admission_policy(SloShedAdmission)
register_admission_policy(OITThrottleAdmission)


def available_admission_policies() -> List[str]:
    return ADMISSION_POLICY_REGISTRY.available()


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
        # Per-pool rejection labels (lazy shed pricing):
        # id(pool) -> (pool, {label: rejections}).
        self._pool_rejections: Dict[int, Tuple[object, Dict[str, int]]] = {}
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
        decision = policy.decide(now, traffic_class, tenant)
        if decision == ADMIT:
            counts.admitted += 1
            policy.admit(now, traffic_class, tenant)
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
        decision = policy.decide(now, traffic_class, tenant)
        if decision == ADMIT:
            counts.admitted += 1
            policy.admit(now, traffic_class, tenant)
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
        self.policy_for(traffic_class).release(now, traffic_class, tenant)
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
        """Price each pool's rejections at the run's final class token means."""
        for pool, by_label in self._pool_rejections.values():
            pool.shed_tokens = sum(
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
