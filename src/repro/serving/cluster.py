"""Heterogeneous replica fleet: named pools of engines behind pool-aware routing.

The serving layer is organised as a :class:`Cluster` of named
:class:`ReplicaPool` s.  Each pool owns its replicas (each an independent
:class:`~repro.llm.engine.LLMEngine` with the pool's own
:class:`~repro.llm.engine.EngineConfig` -- so pools may mix model sizes and
scheduler policies), an intra-pool :class:`RouterPolicy` (``round-robin`` |
``least-loaded`` | ``prefix-affinity``), and elastic capacity: pools can grow
(with a warm-up delay before the new replica takes traffic) and shrink
(draining replicas finish their in-flight work but stop receiving new
requests), and account **replica-seconds** for cost reporting.

Cluster-level routing is two-staged: a request is first *classified* to a
pool -- by its ``traffic_class`` metadata tag (stamped by the mixture load
generator) or, failing that, by predicted decode length against the pools'
declared bounds -- and may then *spill* to a less-loaded pool when the
preferred pool is overloaded; inside the chosen pool the pool's router picks
the replica.  With a single pool and any router the cluster is behaviourally
identical to a flat replica list, so single-pool experiments (the flat
spec's ``"default"`` pool) reproduce their golden pins bit-for-bit.

The cluster duck-types the small engine surface
:class:`~repro.llm.client.LLMClient` depends on (``submit``, ``tokenizer``,
``model``), so agents and workers are oblivious to how many pools or
replicas serve them.  Reporting methods aggregate the per-replica
measurements (energy, runtime breakdown, KV memory, preemptions,
prefix-cache hits) across every pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.llm.energy import PowerState
from repro.llm.engine import EngineConfig, LLMEngine
from repro.llm.predictor import DecodeLengthPredictor
from repro.llm.request import LLMRequest
from repro.registry import PolicyRegistry
from repro.sim import Environment, Event


# ---------------------------------------------------------------------------
# Routing policies (intra-pool replica selection)
# ---------------------------------------------------------------------------


class RouterPolicy:
    """Picks the replica index that serves the next request."""

    name = "base"

    def select(self, request: LLMRequest, replicas: Sequence[LLMEngine]) -> int:
        """Index into ``replicas`` of the replica that takes ``request``.

        Routing runs while other replicas are in the middle of fast-forwarded
        decode runs, whose virtual steps are applied lazily.
        ``num_pending_requests`` is exact at any instant: a run changes it
        only at its last step, at the engine's own wake-up.  A router that
        reads any other engine state must go through the engine methods that
        first catch the run up (``request_queues()``, ``kv_utilization()``,
        ``energy_snapshot()``).
        """
        raise NotImplementedError


class RoundRobinRouter(RouterPolicy):
    """Cycle through replicas in submission order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, request: LLMRequest, replicas: Sequence[LLMEngine]) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index


class LeastLoadedRouter(RouterPolicy):
    """Replica with the fewest in-flight requests (lowest index wins ties)."""

    name = "least-loaded"

    def select(self, request: LLMRequest, replicas: Sequence[LLMEngine]) -> int:
        loads = [engine.num_pending_requests for engine in replicas]
        return loads.index(min(loads))


class PrefixAffinityRouter(RouterPolicy):
    """Cache-aware routing: co-locate shared prefixes, spill on overload.

    Requests whose prompts start with the same leading tokens (the shared
    system/few-shot prefix) prefer the same replica, concentrating
    prefix-cache hits instead of diluting the prefix across every replica's
    cache.  Affinity yields to load: when the preferred replica carries
    ``spill_threshold`` more in-flight requests than the least-loaded one,
    the request spills there instead, so a single hot prefix still scales
    across the cluster.
    """

    name = "prefix-affinity"

    def __init__(self, prefix_tokens: int = 64, spill_threshold: int = 4) -> None:
        self.prefix_tokens = prefix_tokens
        self.spill_threshold = spill_threshold

    def select(self, request: LLMRequest, replicas: Sequence[LLMEngine]) -> int:
        digest = 0
        for token in request.prompt_token_ids[: self.prefix_tokens]:
            digest = (digest * 1000003 + token) % (2**61 - 1)
        preferred = digest % len(replicas)
        loads = [engine.num_pending_requests for engine in replicas]
        least = loads.index(min(loads))
        if loads[preferred] - loads[least] > self.spill_threshold:
            return least
        return preferred


class SessionAffinityRouter(RouterPolicy):
    """Session-sticky routing: keep a conversation on the replica holding
    its warm prefix.

    Each multi-turn session (identified by the ``session`` metadata tag the
    serving driver stamps on every turn's requests) is pinned to the replica
    that served its first turn, so later turns land on the engine whose
    prefix cache still holds the conversation's KV blocks.  Requests without
    a session tag fall back to least-loaded -- which is also how a session's
    *first* turn picks its home, so concurrent sessions spread across the
    pool instead of concentrating on one replica the way content-hash
    ``prefix-affinity`` does when sessions share a task pool.

    Stickiness yields to load and capacity: when the pinned replica carries
    ``spill_threshold`` more in-flight requests than the least-loaded one,
    or has left the active set (replica shrink), the turn re-pins to the
    least-loaded replica.  Either way the old affinity -- and the cross-turn
    cache hit it promised -- is *invalidated* (counted in
    :attr:`invalidations`): the conversation's blocks live on the old
    replica, so the re-pinned turn pays full re-prefill there.
    """

    name = "session-affinity"

    def __init__(self, spill_threshold: int = 4) -> None:
        self.spill_threshold = spill_threshold
        #: session id -> the engine holding the session's warm prefix.
        self._homes: Dict[str, LLMEngine] = {}
        #: Affinity invalidations (spill or shrink re-pinned a session).
        self.invalidations = 0

    def select(self, request: LLMRequest, replicas: Sequence[LLMEngine]) -> int:
        loads = [engine.num_pending_requests for engine in replicas]
        least = loads.index(min(loads))
        session = request.metadata.get("session") if request.metadata else None
        if session is None:
            return least
        home = self._homes.get(session)
        preferred = -1
        if home is not None:
            for index, engine in enumerate(replicas):
                if engine is home:
                    preferred = index
                    break
        if preferred < 0:
            # First turn, or the home replica was drained out of the active
            # set: (re-)pin to the least-loaded replica.
            if home is not None:
                self.invalidations += 1
            self._homes[session] = replicas[least]
            return least
        if loads[preferred] - loads[least] > self.spill_threshold:
            self.invalidations += 1
            self._homes[session] = replicas[least]
            return least
        return preferred


ROUTER_POLICY_REGISTRY = PolicyRegistry("router policy")
#: name -> class mapping (keys are lower-case); kept for membership checks.
ROUTER_POLICIES: Dict[str, Type[RouterPolicy]] = ROUTER_POLICY_REGISTRY.policies


def register_router_policy(router_class: Type[RouterPolicy]) -> Type[RouterPolicy]:
    """Register a router class under its ``name`` (also usable as a decorator)."""
    return ROUTER_POLICY_REGISTRY.register(router_class)


register_router_policy(RoundRobinRouter)
register_router_policy(LeastLoadedRouter)
register_router_policy(PrefixAffinityRouter)
register_router_policy(SessionAffinityRouter)


def available_router_policies() -> List[str]:
    return ROUTER_POLICY_REGISTRY.available()


def create_router_policy(name: str) -> RouterPolicy:
    """Instantiate a registered router policy by name."""
    return ROUTER_POLICY_REGISTRY.create(name)


# ---------------------------------------------------------------------------
# Replica pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingEvent:
    """One elastic-capacity action taken on a pool."""

    time: float
    pool: str
    action: str          # "grow" | "shrink"
    num_provisioned: int  # replicas paying for capacity after the action
    reason: str = ""


class ReplicaPool:
    """A named group of identical replicas with elastic capacity.

    Every replica runs the pool's :class:`EngineConfig`; the pool's
    :class:`RouterPolicy` picks among the *active* replicas.  ``grow`` adds
    capacity with a ``warmup_s`` delay before the replica takes traffic
    (replica-seconds accrue from the grow instant -- capacity is paid for
    while it boots); ``shrink`` deactivates a replica, which drains its
    in-flight requests but receives no new ones and stops accruing
    replica-seconds.  Deactivated replicas are reused by later grows.
    """

    def __init__(
        self,
        env: Environment,
        config: EngineConfig,
        name: str = "default",
        num_replicas: int = 1,
        router: "RouterPolicy | str" = "round-robin",
        traffic_classes: Sequence[str] = (),
        max_predicted_decode: Optional[int] = None,
        accepts_spill: bool = True,
    ):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.env = env
        self.name = name
        self.config = config
        self.router: RouterPolicy = (
            create_router_policy(router) if isinstance(router, str) else router
        )
        self.traffic_classes: Tuple[str, ...] = tuple(c.lower() for c in traffic_classes)
        self.max_predicted_decode = max_predicted_decode
        self.accepts_spill = accepts_spill
        # The concrete hardware every replica of this pool runs on (the
        # config's explicit cluster, or the model's default), cached for cost
        # accounting and cost-aware classification.
        self.hardware = config.resolved_cluster()
        #: Roofline decode seconds per token on this pool's hardware.
        self.decode_seconds_per_token = self.hardware.decode_seconds_per_token(
            config.model
        )

        self.replicas: List[LLMEngine] = []
        self.routed_counts: List[int] = []
        self._active: List[bool] = []
        # Per replica: when the current paid-capacity span started (grow or
        # construction time), or None while deactivated.
        self._span_start: List[Optional[float]] = []
        self._accrued_replica_seconds = 0.0
        self.scaling_events: List[ScalingEvent] = []
        self.spilled_in = 0
        self.spilled_out = 0
        # Door-level admission accounting attributed to this pool: requests
        # the admission controller shed instead of enqueueing here, and the
        # estimated decode tokens that shedding avoided.
        self.rejected_requests = 0
        self.shed_tokens = 0.0
        # Warm-up timeouts currently pending (background events for liveness
        # checks, like the autoscaler heartbeat).
        self.activation_timers: List[Event] = []
        # replica index -> simulated time its pending warm-up completes.
        # Cooperative admission reads this to know how much capacity is
        # already in flight and when it lands.
        self.warming_etas: Dict[int, float] = {}
        for _ in range(num_replicas):
            index = self._new_replica()
            self._active[index] = True
            self._span_start[index] = self.env.now

    # -- capacity -------------------------------------------------------------
    def _new_replica(self) -> int:
        self.replicas.append(LLMEngine(self.env, self.config))
        self.routed_counts.append(0)
        self._active.append(False)
        self._span_start.append(None)
        return len(self.replicas) - 1

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def num_active(self) -> int:
        return sum(self._active)

    @property
    def num_provisioned(self) -> int:
        """Replicas currently paying for capacity (active or warming up)."""
        return sum(1 for start in self._span_start if start is not None)

    def active_indices(self) -> List[int]:
        return [index for index, active in enumerate(self._active) if active]

    def grow(self, warmup_s: float = 0.0, reason: str = "") -> int:
        """Provision one replica; it takes traffic after ``warmup_s``."""
        now = self.env.now
        for index, start in enumerate(self._span_start):
            if start is None:
                break
        else:
            index = self._new_replica()
        self._span_start[index] = now
        if warmup_s > 0:
            self.warming_etas[index] = now + warmup_s
            self.env.process(self._activate_after(index, warmup_s))
        else:
            self._active[index] = True
        self.scaling_events.append(
            ScalingEvent(now, self.name, "grow", self.num_provisioned, reason)
        )
        return index

    def _activate_after(self, index: int, warmup_s: float):
        timer = self.env.timeout(warmup_s)
        self.activation_timers.append(timer)
        yield timer
        self.activation_timers.remove(timer)
        self.warming_etas.pop(index, None)
        if self._span_start[index] is not None:
            self._active[index] = True

    def warming_replicas_within(self, now: float, horizon_s: float) -> int:
        """In-flight scale-ups whose warm-up completes within the horizon."""
        deadline = now + horizon_s
        return sum(
            1
            for index, eta in self.warming_etas.items()
            if self._span_start[index] is not None and eta <= deadline
        )

    def shrink(self, reason: str = "") -> Optional[int]:
        """Deactivate the active replica with the least in-flight work.

        Refuses to drain the last active replica (returns ``None``): a pool
        must always be able to serve the traffic routed to it.
        """
        candidates = self.active_indices()
        if len(candidates) <= 1:
            return None
        index = min(
            candidates,
            key=lambda i: (self.replicas[i].num_pending_requests, -i),
        )
        now = self.env.now
        self._active[index] = False
        self._accrued_replica_seconds += now - self._span_start[index]
        self._span_start[index] = None
        self.scaling_events.append(
            ScalingEvent(now, self.name, "shrink", self.num_provisioned, reason)
        )
        return index

    def replica_seconds_until(self, now: Optional[float] = None) -> float:
        """Total replica-seconds paid for up to ``now`` (cost accounting)."""
        now = self.env.now if now is None else now
        open_spans = sum(
            now - start for start in self._span_start if start is not None
        )
        return self._accrued_replica_seconds + open_spans

    @property
    def cost_per_hour(self) -> float:
        """USD per replica-hour of this pool's hardware (GPU price x TP)."""
        return self.hardware.cost_per_hour

    def cost_until(self, now: Optional[float] = None) -> float:
        """USD spent on this pool's replica-seconds up to ``now``."""
        return self.replica_seconds_until(now) / 3600.0 * self.cost_per_hour

    # -- load & submission ----------------------------------------------------
    @property
    def num_pending_requests(self) -> int:
        return sum(engine.num_pending_requests for engine in self.replicas)

    @property
    def pending_per_active_replica(self) -> float:
        return self.num_pending_requests / max(self.num_active, 1)

    def pending_predicted_tokens(self, predictor: DecodeLengthPredictor) -> float:
        """Predicted decode tokens enqueued on this pool (waiting + remaining).

        Waiting requests count their full predicted decode; running requests
        count the predicted remainder.  This is the backlog signal SLO-aware
        admission consults before new work is enqueued.
        """
        total = 0.0
        for engine in self.replicas:
            waiting, running = engine.request_queues()
            for request in waiting:
                total += predictor.predict(request)
            for request in running:
                total += max(
                    0.0, predictor.predict(request) - request.num_output_tokens
                )
        return total

    def submit(self, request: LLMRequest) -> Event:
        """Route ``request`` to one of the pool's active replicas."""
        indices = self.active_indices()
        if not indices:
            # Unreachable through the public surface (construction activates
            # >= 1 replica and shrink keeps the last one), kept as a guard.
            raise RuntimeError(f"pool {self.name!r} has no active replicas")
        subset = [self.replicas[i] for i in indices]
        pick = self.router.select(request, subset)
        if not 0 <= pick < len(subset):
            raise ValueError(
                f"router {self.router.name!r} picked invalid replica {pick}"
            )
        index = indices[pick]
        self.routed_counts[index] += 1
        request.metadata.setdefault("replica", index)
        request.metadata.setdefault("pool", self.name)
        return self.replicas[index].submit(request)

    # -- reporting -------------------------------------------------------------
    @property
    def preemption_count(self) -> int:
        return sum(engine.scheduler.preemption_count for engine in self.replicas)

    def prefix_cache_hit_rate(self) -> float:
        hits = sum(engine.kv_cache.cached_token_hits for engine in self.replicas)
        seen = sum(engine.kv_cache.prompt_tokens_seen for engine in self.replicas)
        if seen == 0:
            return 0.0
        return hits / seen

    @property
    def completed_requests(self) -> List[LLMRequest]:
        finished: List[LLMRequest] = []
        for engine in self.replicas:
            finished.extend(engine.completed_requests)
        return finished


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------


class ClusterEnergySnapshot:
    """Per-engine energy snapshots taken at one instant (keyed by engine id)."""

    def __init__(self, snapshots: Dict[int, object]):
        self.snapshots = snapshots

    def for_engine(self, engine: LLMEngine):
        """Snapshot for ``engine``; an empty baseline for engines born later."""
        snapshot = self.snapshots.get(id(engine))
        if snapshot is None:
            from repro.llm.energy import EnergySnapshot

            snapshot = EnergySnapshot(joules_by_state={}, seconds_by_state={})
        return snapshot


class ClusterEnergyWindow:
    """Aggregated energy spent across all replicas since a snapshot."""

    def __init__(self, windows: List[object]):
        self.windows = windows

    @property
    def total_wh(self) -> float:
        return sum(window.total_wh for window in self.windows)

    @property
    def joules_by_state(self) -> Dict[PowerState, float]:
        combined: Dict[PowerState, float] = {}
        for window in self.windows:
            for state, joules in window.joules_by_state.items():
                combined[state] = combined.get(state, 0.0) + joules
        return combined


class Cluster:
    """Named replica pools behind two-stage (classify, then spill) routing.

    Exposes the same ``submit``/``tokenizer``/``model`` surface as a single
    :class:`LLMEngine`, so an :class:`~repro.llm.client.LLMClient` can be
    bound to a cluster transparently.  A homogeneous fleet is one
    ``"default"`` pool; pass several pools for a heterogeneous fleet.
    """

    def __init__(
        self,
        env: Environment,
        pools: Sequence[ReplicaPool],
        predictor: Optional[DecodeLengthPredictor] = None,
        pool_spill_threshold: Optional[float] = 4.0,
        classification: str = "static",
        class_slos: Optional[Dict[str, float]] = None,
        default_slo: Optional[float] = None,
    ):
        if classification not in ("static", "cost-aware"):
            raise ValueError(
                f"unknown pool classification {classification!r}; "
                "known: ['static', 'cost-aware']"
            )
        if not pools:
            raise ValueError("Cluster needs at least one ReplicaPool")
        names = [pool.name for pool in pools]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pool names: {names}")
        self.env = env
        self.pools: Dict[str, ReplicaPool] = {pool.name: pool for pool in pools}
        self.predictor = predictor or DecodeLengthPredictor()
        self.pool_spill_threshold = pool_spill_threshold
        self.classification = classification
        #: traffic-class label (lower-cased) -> p95 SLO seconds, for the
        #: cost-aware classifier; ``default_slo`` covers unlabelled classes.
        self.class_slos = {
            str(label).lower(): slo for label, slo in (class_slos or {}).items()
        }
        self.default_slo = default_slo

    # -- pool access ----------------------------------------------------------
    @property
    def default_pool(self) -> ReplicaPool:
        return next(iter(self.pools.values()))

    def pool(self, name: str) -> ReplicaPool:
        if name not in self.pools:
            raise KeyError(f"unknown pool {name!r}; known: {sorted(self.pools)}")
        return self.pools[name]

    @property
    def engines(self) -> Iterator[LLMEngine]:
        for pool in self.pools.values():
            yield from pool.replicas

    # -- engine-compatible surface ------------------------------------------
    @property
    def replicas(self) -> List[LLMEngine]:
        """Every replica across pools (pool declaration order)."""
        return list(self.engines)

    @property
    def routed_counts(self) -> List[int]:
        """Per-replica routed counts, flattened across pools."""
        counts: List[int] = []
        for pool in self.pools.values():
            counts.extend(pool.routed_counts)
        return counts

    @property
    def num_replicas(self) -> int:
        return sum(pool.num_replicas for pool in self.pools.values())

    @property
    def model(self):
        return self.default_pool.replicas[0].model

    @property
    def tokenizer(self):
        return self.default_pool.replicas[0].tokenizer

    @property
    def num_pending_requests(self) -> int:
        return sum(pool.num_pending_requests for pool in self.pools.values())

    @property
    def scaling_events(self) -> List[ScalingEvent]:
        events: List[ScalingEvent] = []
        for pool in self.pools.values():
            events.extend(pool.scaling_events)
        events.sort(key=lambda event: event.time)
        return events

    def replica_seconds_until(self, now: Optional[float] = None) -> float:
        return sum(pool.replica_seconds_until(now) for pool in self.pools.values())

    def pending_predicted_tokens(self) -> float:
        """Fleet-wide enqueued backlog in predicted decode tokens."""
        return sum(
            pool.pending_predicted_tokens(self.predictor)
            for pool in self.pools.values()
        )

    # -- routing --------------------------------------------------------------
    def submit(self, request: LLMRequest) -> Event:
        """Classify ``request`` to a pool (with spill) and route it there."""
        pool = self._classify(request)
        pool = self._maybe_spill(pool, request)
        return pool.submit(request)

    def _classify(self, request: LLMRequest) -> ReplicaPool:
        pools = list(self.pools.values())
        if len(pools) == 1:
            return pools[0]
        if self.classification == "cost-aware":
            pool = self._classify_cost_aware(request, pools)
            if pool is not None:
                return pool
        traffic_class = request.metadata.get("traffic_class")
        if traffic_class:
            key = str(traffic_class).lower()
            for pool in pools:
                if key in pool.traffic_classes:
                    return pool
        bounded = [pool for pool in pools if pool.max_predicted_decode is not None]
        if bounded:
            predicted = self.predictor.predict(request)
            for pool in sorted(bounded, key=lambda p: p.max_predicted_decode):
                if predicted <= pool.max_predicted_decode:
                    return pool
            unbounded = [pool for pool in pools if pool.max_predicted_decode is None]
            if unbounded:
                return unbounded[0]
            return max(bounded, key=lambda p: p.max_predicted_decode)
        return self.default_pool

    def _classify_cost_aware(
        self, request: LLMRequest, pools: List[ReplicaPool]
    ) -> Optional[ReplicaPool]:
        """Cheapest pool whose predicted decode still meets the class SLO.

        Pools are scanned in ascending replica-hour price; a pool qualifies
        when its roofline decode time for the request's predicted decode
        length -- plus its share of the pool's enqueued predicted backlog --
        fits the SLO governing the request's traffic class.  When no pool
        qualifies, the fastest pool is the best effort.  Requests whose class
        has no declared SLO return ``None`` and fall back to static
        classification (spill still runs after either path).
        """
        traffic_class = request.metadata.get("traffic_class")
        slo = None
        if traffic_class:
            slo = self.class_slos.get(str(traffic_class).lower())
        if slo is None:
            slo = self.default_slo
        if slo is None:
            return None
        predicted = self.predictor.predict(request)
        ranked = sorted(pools, key=lambda pool: (pool.cost_per_hour, pool.name))
        for pool in ranked:
            backlog = pool.pending_predicted_tokens(self.predictor)
            queued = backlog / max(pool.num_active, 1)
            if (predicted + queued) * pool.decode_seconds_per_token <= slo:
                return pool
        return min(ranked, key=lambda pool: pool.decode_seconds_per_token)

    def _maybe_spill(self, chosen: ReplicaPool, request: LLMRequest) -> ReplicaPool:
        """Overflow to a less-loaded pool when ``chosen`` is overloaded."""
        if self.pool_spill_threshold is None or len(self.pools) == 1:
            return chosen
        eligible = [
            pool
            for pool in self.pools.values()
            if pool.accepts_spill or pool is chosen
        ]
        if len(eligible) < 2:
            return chosen
        loads = {pool.name: pool.pending_per_active_replica for pool in eligible}
        best = min(eligible, key=lambda pool: loads[pool.name])
        if best is not chosen and loads[chosen.name] - loads[best.name] > self.pool_spill_threshold:
            chosen.spilled_out += 1
            best.spilled_in += 1
            request.metadata.setdefault("spilled_from", chosen.name)
            return best
        return chosen

    # -- aggregated reporting -------------------------------------------------
    def energy_snapshot(self) -> ClusterEnergySnapshot:
        return ClusterEnergySnapshot(
            {id(engine): engine.energy_snapshot() for engine in self.engines}
        )

    def energy_since(self, snapshot: ClusterEnergySnapshot) -> ClusterEnergyWindow:
        return ClusterEnergyWindow(
            [
                engine.energy.since(snapshot.for_engine(engine))
                for engine in self.engines
            ]
        )

    def runtime_breakdown(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Summed seconds per step kind across replicas within ``[start, end]``."""
        combined: Dict[str, float] = {
            "prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0
        }
        for engine in self.engines:
            for kind, seconds in engine.runtime_breakdown(start, end).items():
                combined[kind] = combined.get(kind, 0.0) + seconds
        return combined

    def kv_memory_stats(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Cluster-wide KV footprint: per-replica averages and maxima summed."""
        average = 0.0
        maximum = 0.0
        for engine in self.engines:
            stats = engine.kv_memory_stats(start, end)
            average += stats["average_bytes"]
            maximum += stats["max_bytes"]
        return {"average_bytes": average, "max_bytes": maximum}

    @property
    def preemption_count(self) -> int:
        return sum(pool.preemption_count for pool in self.pools.values())

    def prefix_cache_hit_rate(self) -> float:
        """Token-weighted hit rate across every replica's prefix cache."""
        hits = sum(engine.kv_cache.cached_token_hits for engine in self.engines)
        seen = sum(engine.kv_cache.prompt_tokens_seen for engine in self.engines)
        if seen == 0:
            return 0.0
        return hits / seen

    @property
    def completed_requests(self) -> List[LLMRequest]:
        finished: List[LLMRequest] = []
        for engine in self.engines:
            finished.extend(engine.completed_requests)
        return finished
