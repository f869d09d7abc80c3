"""System assembly: one place that turns a spec into runnable machinery.

:class:`SystemBuilder` owns every wiring decision: environment creation,
replica-pool and cluster construction, client binding, traffic-class
instantiation, autoscaler attachment, admission, toolset assembly, and
agent creation with the experiment-scoped random streams.  Everything it
builds sees only pools (:attr:`ExperimentSpec.fleet`) and traffic classes
(:meth:`SystemBuilder.build_traffic`); a flat spec is one ``"default"``
pool and one unlabelled class.  The stream namespaces (``runner/...`` for
single-request characterization, ``serving/...`` for serving runs) are
fixed so a one-replica FCFS spec keeps reproducing its golden-pinned
results bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.agents import create_agent
from repro.agents.base import BaseAgent
from repro.api.spec import TOOLLESS_AGENTS, ExperimentSpec, PoolSpec
from repro.llm import EngineConfig, LLMClient, SchedulerConfig
from repro.llm.models import get_model
from repro.llm.predictor import DecodeLengthPredictor
from repro.serving.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionPolicy,
    AdmissionSpec,
    ClusterLoadProbe,
)
from repro.serving.autoscaler import Autoscaler
from repro.serving.cluster import Cluster, ReplicaPool
from repro.sim import Environment, RandomStream
from repro.workloads import create_workload
from repro.workloads.base import Workload


@dataclass
class TrafficClassRuntime:
    """One traffic class, bound to live machinery.

    ``label`` is ``None`` for the one unlabelled class of a flat spec.
    ``shape`` is the class's own rate modulation (``None`` = steady): the
    load generator superposes each shaped class as its own arrival process.
    ``tenants`` is the class's own user population (``None`` = inherit the
    arrival-level tenant spec, or untenanted).  ``sessions`` is the class's
    own multi-turn conversation shape (``None`` = inherit the arrival-level
    session spec, or single-shot).
    """

    label: Optional[str]
    agent: str
    workload: Workload
    weight: float
    agent_config: object  # AgentConfig
    shape: object = None  # Optional[RateShape]
    tenants: object = None  # Optional[TenantSpec]
    sessions: object = None  # Optional[SessionSpec]

    @property
    def needs_tools(self) -> bool:
        """Whether this class's agent needs the tool runtime."""
        return self.agent.lower() not in TOOLLESS_AGENTS


@dataclass
class System:
    """Fully assembled experiment machinery, ready to be driven.

    ``traffic`` maps each traffic-class label to its runtime; a flat spec's
    one unlabelled class is keyed ``None``.
    """

    spec: ExperimentSpec
    env: Environment
    cluster: Cluster
    client: LLMClient
    stream: RandomStream
    traffic: Dict[Optional[str], TrafficClassRuntime] = field(default_factory=dict)
    autoscaler: Optional[Autoscaler] = None
    admission: Optional[AdmissionController] = None

    def create_agent(self, label: Optional[str], seed_stream: RandomStream) -> BaseAgent:
        """Instantiate the agent of traffic class ``label`` bound to its workload.

        A labelled class's agent stamps its traffic class onto every LLM
        request it issues, which is what pool-aware cluster routing
        classifies on; the unlabelled class stamps nothing.
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
        if label is not None:
            agent.request_metadata["traffic_class"] = label
        return agent

    def close(self) -> None:
        """Stop the engine and autoscaler loops, whose suspended generators
        would keep the system in reference cycles, once nothing more runs."""
        for engine in self.cluster.engines:
            engine.process.close()
        if self.autoscaler is not None:
            self.autoscaler.process.close()


class SystemBuilder:
    """Builds a :class:`System` from an :class:`ExperimentSpec`."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec

    def engine_config(self, pool: PoolSpec) -> EngineConfig:
        """Engine configuration for one pool; its unset fields inherit the spec's."""
        spec = self.spec

        def inherit(value, default):
            return default if value is None else value

        scheduler_kwargs = {}
        if spec.max_num_seqs is not None:
            scheduler_kwargs["max_num_seqs"] = spec.max_num_seqs
        hardware = inherit(pool.hardware, spec.hardware)
        return EngineConfig(
            model=get_model(pool.model),
            enable_prefix_caching=inherit(
                pool.enable_prefix_caching, spec.enable_prefix_caching
            ),
            scheduler=SchedulerConfig(
                policy=pool.scheduler,
                predictor_error=spec.predictor_error,
                predictor_seed=spec.seed,
                **scheduler_kwargs,
            ),
            kv_cache_fraction=inherit(pool.kv_cache_fraction, spec.kv_cache_fraction),
            prefill_chunk_tokens=inherit(
                pool.prefill_chunk_tokens, spec.prefill_chunk_tokens
            ),
            speculative=inherit(pool.speculative, spec.speculative),
            # None keeps EngineConfig.resolved_cluster() on cluster_for_model,
            # the golden-pinned default hardware.
            cluster=hardware.resolve() if hardware is not None else None,
        )

    def stream_name(self) -> str:
        """Experiment-scoped random-stream namespace.

        Keyed on the flat ``agent``/``workload`` even for mixtures, because
        every golden pin draws from it.
        """
        if self.spec.arrival.process == "single":
            return f"runner/{self.spec.agent}/{self.spec.workload}"
        return f"serving/{self.spec.agent}/{self.spec.workload}"

    def build_cluster(self, env: Environment) -> Cluster:
        """Assemble the replica fleet: one :class:`ReplicaPool` per fleet pool."""
        spec = self.spec
        predictor = DecodeLengthPredictor(spec.predictor_error, seed=spec.seed)
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
            for pool in spec.fleet
        ]
        return Cluster(
            env,
            pools=pools,
            predictor=predictor,
            classification=spec.pool_classification,
            class_slos=dict(spec.measurement.class_slos),
            default_slo=spec.measurement.slo_p95_s,
        )

    def build_traffic(self) -> Dict[Optional[str], TrafficClassRuntime]:
        """Instantiate every traffic class: the declared mixture, or the one
        unlabelled class (key ``None``, weight 1.0) the flat fields describe."""
        spec = self.spec
        if not spec.workloads:
            return {
                None: TrafficClassRuntime(
                    label=None,
                    agent=spec.agent,
                    workload=create_workload(spec.workload, seed=spec.seed),
                    weight=1.0,
                    agent_config=spec.agent_config,
                )
            }
        return {
            mix.name: TrafficClassRuntime(
                label=mix.name,
                agent=mix.agent,
                workload=create_workload(mix.workload, seed=spec.seed),
                weight=mix.weight,
                agent_config=mix.agent_config or spec.agent_config,
                shape=mix.shape,
                tenants=mix.tenants,
                sessions=mix.sessions,
            )
            for mix in spec.workloads
        }

    def _admission_policy(
        self, sub: AdmissionSpec, probe: ClusterLoadProbe
    ) -> AdmissionPolicy:
        """One policy instance from one (sub-)spec; an ``slo-shed`` spec
        without its own SLO takes the one measurement declares."""
        if sub.policy.lower() == "slo-shed" and sub.slo_p95_s is None:
            slo = self.spec.measurement.slo_for(sub.protect_class or None)
            sub = replace(sub, slo_p95_s=slo)
        return ADMISSION_POLICIES[sub.policy.lower()](sub, probe)

    def build_admission(self, cluster: Cluster) -> AdmissionController:
        """Assemble the door controller: per-class policies + pool attribution.

        Each traffic class with an override gets its own policy instance (so
        bucket and hysteresis state are per class); rejections are attributed
        to the pool that claims the class (the default pool otherwise).
        Policies read the cluster's enqueued backlog through the shared
        :class:`ClusterLoadProbe`, so door decisions see fleet load before
        any work is enqueued; a cooperative gate looks ahead over the
        autoscaler's horizon.
        """
        spec = self.spec.admission or AdmissionSpec()
        scaling = self.spec.autoscaler
        probe = ClusterLoadProbe(
            cluster, horizon_s=None if scaling is None else scaling.horizon_s
        )
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
        return Autoscaler(env, pool, scaling, predictor=cluster.predictor)

    def build(self) -> System:
        """Assemble environment, cluster, client, traffic, and streams."""
        spec = self.spec
        env = Environment()
        cluster = self.build_cluster(env)
        client = LLMClient(env, cluster)
        stream = RandomStream(spec.seed, self.stream_name())
        traffic = self.build_traffic()
        autoscaler = self.build_autoscaler(env, cluster)
        admission = self.build_admission(cluster)
        return System(
            spec=spec,
            env=env,
            cluster=cluster,
            client=client,
            stream=stream,
            traffic=traffic,
            autoscaler=autoscaler,
            admission=admission,
        )
