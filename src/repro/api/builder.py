"""System assembly: one place that turns a spec into runnable machinery.

:class:`SystemBuilder` owns every wiring decision: environment creation,
replica-pool and cluster construction, client binding, workload
instantiation (including the weighted traffic-class mixture), autoscaler
attachment, admission, toolset assembly, and agent creation with the
experiment-scoped random streams.  The stream namespaces (``runner/...``
for single-request characterization, ``serving/...`` for serving runs) are
fixed so a one-replica FCFS spec keeps reproducing its golden-pinned
results bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.agents import create_agent
from repro.agents.base import BaseAgent
from repro.api.spec import AdmissionSpec, ExperimentSpec, PoolSpec, WeightedWorkload
from repro.llm import EngineConfig, LLMClient, SchedulerConfig
from repro.llm.models import get_model
from repro.llm.predictor import DecodeLengthPredictor
from repro.serving.admission import (
    AdmissionController,
    AdmissionPolicy,
    ClusterLoadProbe,
    build_admission_policy,
)
from repro.serving.autoscaler import Autoscaler
from repro.serving.cluster import Cluster, ReplicaPool
from repro.serving.forecast import build_forecaster
from repro.sim import Environment, RandomStream
from repro.tools.base import ToolSet
from repro.workloads import create_workload
from repro.workloads.base import Workload


@dataclass
class TrafficClassRuntime:
    """One traffic class of the mixture, bound to live machinery.

    ``shape`` is the class's own rate modulation (``None`` = steady): the
    load generator superposes each shaped class as its own arrival process.
    ``tenants`` is the class's own user population (``None`` = inherit the
    arrival-level tenant spec, or untenanted).  ``sessions`` is the class's
    own multi-turn conversation shape (``None`` = inherit the arrival-level
    session spec, or single-shot).
    """

    label: str
    agent: str
    workload: Workload
    weight: float
    agent_config: object  # AgentConfig
    needs_tools: bool = True
    shape: object = None  # Optional[RateShape]
    tenants: object = None  # Optional[TenantSpec]
    sessions: object = None  # Optional[SessionSpec]


@dataclass
class System:
    """Fully assembled experiment machinery, ready to be driven.

    ``workload`` is the legacy single workload; it is ``None`` for mixture
    specs, whose per-class workloads live in ``traffic``.
    """

    spec: ExperimentSpec
    env: Environment
    cluster: Cluster
    client: LLMClient
    workload: Optional[Workload]
    stream: RandomStream
    traffic: Dict[str, TrafficClassRuntime] = field(default_factory=dict)
    autoscaler: Optional[Autoscaler] = None
    admission: Optional[AdmissionController] = None

    def build_toolset(self) -> Optional[ToolSet]:
        """Fresh toolset bound to this system (``None`` for tool-less agents)."""
        if not self.spec.needs_tools:
            return None
        return self.workload.build_toolset(self.env, self.client.tokenizer, self.client)

    def create_agent(
        self,
        seed_stream: RandomStream,
        toolset: Optional[ToolSet] = None,
        build_toolset: bool = True,
    ) -> BaseAgent:
        """Instantiate the spec's agent bound to this system."""
        if toolset is None and build_toolset:
            toolset = self.build_toolset()
        return create_agent(
            self.spec.agent,
            env=self.env,
            client=self.client,
            workload=self.workload,
            toolset=toolset,
            config=self.spec.agent_config,
            seed_stream=seed_stream,
        )

    def create_class_agent(self, label: str, seed_stream: RandomStream) -> BaseAgent:
        """Instantiate the agent of traffic class ``label`` bound to its workload.

        The agent stamps its traffic class onto every LLM request it issues,
        which is what pool-aware cluster routing classifies on.
        """
        runtime = self.traffic[label]
        toolset = None
        if runtime.needs_tools:
            toolset = runtime.workload.build_toolset(
                self.env, self.client.tokenizer, self.client
            )
        agent = create_agent(
            runtime.agent,
            env=self.env,
            client=self.client,
            workload=runtime.workload,
            toolset=toolset,
            config=runtime.agent_config,
            seed_stream=seed_stream,
        )
        agent.request_metadata["traffic_class"] = label
        return agent


class SystemBuilder:
    """Builds a :class:`System` from an :class:`ExperimentSpec`."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec

    def engine_config(self, pool: Optional[PoolSpec] = None) -> EngineConfig:
        """Engine configuration for one declared pool (or the default pool)."""
        spec = self.spec
        model = pool.model if pool is not None else spec.model
        scheduler_policy = pool.scheduler if pool is not None else spec.scheduler
        prefix_caching = spec.enable_prefix_caching
        if pool is not None and pool.enable_prefix_caching is not None:
            prefix_caching = pool.enable_prefix_caching
        scheduler_kwargs = {}
        if spec.max_num_seqs is not None:
            scheduler_kwargs["max_num_seqs"] = spec.max_num_seqs
        kv_cache_fraction = spec.kv_cache_fraction
        if pool is not None and pool.kv_cache_fraction is not None:
            kv_cache_fraction = pool.kv_cache_fraction
        prefill_chunk_tokens = spec.prefill_chunk_tokens
        if pool is not None and pool.prefill_chunk_tokens is not None:
            prefill_chunk_tokens = pool.prefill_chunk_tokens
        speculative = spec.speculative
        if pool is not None and pool.speculative is not None:
            speculative = pool.speculative
        hardware = spec.hardware
        if pool is not None and pool.hardware is not None:
            hardware = pool.hardware
        return EngineConfig(
            model=get_model(model),
            enable_prefix_caching=prefix_caching,
            scheduler=SchedulerConfig(
                policy=scheduler_policy,
                predictor_error=spec.predictor_error,
                predictor_seed=spec.seed,
                **scheduler_kwargs,
            ),
            decode_fast_forward=spec.decode_fast_forward,
            kv_cache_fraction=kv_cache_fraction,
            prefill_chunk_tokens=prefill_chunk_tokens,
            speculative=speculative,
            # None keeps EngineConfig.resolved_cluster() on cluster_for_model,
            # the golden-pinned legacy hardware.
            cluster=hardware.resolve() if hardware is not None else None,
        )

    def stream_name(self) -> str:
        """Experiment-scoped random-stream namespace (legacy-compatible)."""
        if self.spec.arrival.process == "single":
            return f"runner/{self.spec.agent}/{self.spec.workload}"
        return f"serving/{self.spec.agent}/{self.spec.workload}"

    def build_cluster(self, env: Environment) -> Cluster:
        """Assemble the replica fleet: the declared pools, or one default pool."""
        spec = self.spec
        predictor = DecodeLengthPredictor(spec.predictor_error, seed=spec.seed)
        if not spec.pools:
            pool = ReplicaPool(
                env,
                self.engine_config(),
                name="default",
                num_replicas=spec.replicas,
                router=spec.router,
            )
            return Cluster(env, pools=[pool], predictor=predictor)
        pools = [
            ReplicaPool(
                env,
                self.engine_config(pool),
                name=pool.name,
                num_replicas=pool.replicas,
                router=pool.router,
                traffic_classes=pool.traffic_classes,
                max_predicted_decode=pool.max_predicted_decode,
                accepts_spill=pool.accepts_spill,
            )
            for pool in spec.pools
        ]
        return Cluster(
            env,
            pools=pools,
            predictor=predictor,
            classification=spec.pool_classification,
            class_slos=dict(spec.measurement.class_slos),
            default_slo=spec.measurement.slo_p95_s,
        )

    def build_traffic(self) -> Dict[str, TrafficClassRuntime]:
        """Instantiate the workload of every traffic class in the mixture."""
        spec = self.spec
        traffic: Dict[str, TrafficClassRuntime] = {}
        for mix in spec.workloads:
            traffic[mix.name] = TrafficClassRuntime(
                label=mix.name,
                agent=mix.agent,
                workload=create_workload(mix.workload, seed=spec.seed),
                weight=mix.weight,
                agent_config=mix.agent_config or spec.agent_config,
                needs_tools=mix.needs_tools,
                shape=mix.shape,
                tenants=mix.tenants,
                sessions=mix.sessions,
            )
        return traffic

    def _admission_policy(
        self, sub: AdmissionSpec, probe: ClusterLoadProbe
    ) -> AdmissionPolicy:
        """One policy instance from one (sub-)spec, with inherited defaults."""
        slo = sub.slo_p95_s
        if slo is None and sub.policy.lower() == "slo-shed":
            slo = self.spec.measurement.slo_for(sub.protect_class or None)
        # A cooperative gate projects at the autoscaler's forecast horizon,
        # so both controllers reason about the same look-ahead window.
        horizon_s = 10.0
        if self.spec.autoscaler is not None:
            horizon_s = self.spec.autoscaler.horizon_s
        return build_admission_policy(
            sub.policy,
            max_concurrency=sub.max_concurrency,
            rate_qps=sub.rate_qps,
            burst=sub.burst,
            overload_action=sub.overload_action,
            slo_p95_s=slo,
            window_s=sub.window_s,
            enter_factor=sub.enter_factor,
            exit_factor=sub.exit_factor,
            protect_class=sub.protect_class or None,
            load_probe=probe,
            cooperative=sub.cooperative,
            horizon_s=horizon_s,
            user_rpm=sub.user_rpm,
            app_rpm=sub.app_rpm,
            kv_threshold=sub.kv_threshold,
            queue_threshold=sub.queue_threshold,
        )

    def build_admission(self, cluster: Cluster) -> AdmissionController:
        """Assemble the door controller: per-class policies + pool attribution.

        Each traffic class with an override gets its own policy instance (so
        bucket and hysteresis state are per class); rejections are attributed
        to the pool that claims the class (the default pool otherwise).
        Policies read the cluster's enqueued backlog through the shared
        :class:`ClusterLoadProbe`, so door decisions see fleet load before
        any work is enqueued.
        """
        spec = self.spec.admission or AdmissionSpec()
        probe = ClusterLoadProbe(cluster)
        class_policies = {
            label: self._admission_policy(sub, probe)
            for label, sub in spec.per_class
        }
        class_pools: Dict[str, ReplicaPool] = {}
        for pool in cluster.pools.values():
            for traffic_class in pool.traffic_classes:
                class_pools.setdefault(traffic_class, pool)
        return AdmissionController(
            default_policy=self._admission_policy(spec, probe),
            class_policies=class_policies,
            class_pools=class_pools,
            default_pool=cluster.default_pool,
        )

    def build_autoscaler(self, env: Environment, cluster: Cluster) -> Optional[Autoscaler]:
        """The spec's autoscaler wired to its target pool (``None`` if unset)."""
        scaling = self.spec.autoscaler
        if scaling is None:
            return None
        pool = cluster.pool(scaling.pool) if scaling.pool else cluster.default_pool
        # Predictive mode needs a forecaster fed by the arrival timeline (the
        # serving driver feeds it) and the cluster's shared decode predictor
        # for backlog pricing; reactive mode takes neither, keeping the
        # golden-pinned legacy behaviour untouched.
        forecaster = None
        if scaling.mode == "predictive":
            forecaster = build_forecaster(
                scaling.forecaster,
                window_s=scaling.forecaster_window_s,
                bucket_s=scaling.forecaster_bucket_s,
                alpha=scaling.forecaster_alpha,
                beta=scaling.forecaster_beta,
            )
        return Autoscaler(
            env,
            pool,
            min_replicas=scaling.min_replicas,
            max_replicas=scaling.max_replicas,
            check_interval_s=scaling.check_interval_s,
            warmup_s=scaling.warmup_s,
            cooldown_s=scaling.cooldown_s,
            scale_up_pending_per_replica=scaling.scale_up_pending_per_replica,
            scale_down_pending_per_replica=scaling.scale_down_pending_per_replica,
            p95_slo_s=scaling.p95_slo_s,
            p95_window_s=scaling.p95_window_s,
            mode=scaling.mode,
            forecaster=forecaster,
            horizon_s=scaling.horizon_s,
            predictor=cluster.predictor,
        )

    def build(self) -> System:
        """Assemble environment, cluster, client, workloads, and streams."""
        spec = self.spec
        env = Environment()
        cluster = self.build_cluster(env)
        client = LLMClient(env, cluster)
        # Mixture specs serve only their traffic classes; the legacy single
        # workload would be dead weight (hotpotqa builds a synthetic corpus).
        workload = (
            create_workload(spec.workload, seed=spec.seed) if not spec.workloads else None
        )
        stream = RandomStream(spec.seed, self.stream_name())
        traffic = self.build_traffic()
        autoscaler = self.build_autoscaler(env, cluster)
        admission = self.build_admission(cluster)
        return System(
            spec=spec,
            env=env,
            cluster=cluster,
            client=client,
            workload=workload,
            stream=stream,
            traffic=traffic,
            autoscaler=autoscaler,
            admission=admission,
        )
