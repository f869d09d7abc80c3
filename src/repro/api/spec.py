"""Declarative experiment specification: the single front door's vocabulary.

An :class:`ExperimentSpec` captures everything needed to reproduce an
experiment -- model, replica pools, scheduler and router policies, agent,
workload mixture, autoscaling, arrival process, seed, and measurement window
-- as one frozen, validated, serialisable value.  Construction is the only
place validation happens; everything downstream
(:class:`~repro.api.builder.SystemBuilder`, the runners) can assume a
well-formed spec.

Fleet vocabulary (the paper's Table IV datacenter scenario):

* :class:`PoolSpec` -- one named replica pool with its own model, size,
  scheduler, router, and the traffic it prefers (explicit traffic classes
  and/or a predicted-decode-length bound),
* :class:`WeightedWorkload` -- one traffic class of a workload mixture: an
  (agent, workload) pair with a sampling weight.

The door and the autoscaler are declared with
:class:`~repro.serving.admission.AdmissionSpec` and
:class:`~repro.serving.autoscaler.AutoscalerSpec`, defined beside the
runtime they configure (as :class:`~repro.serving.sessions.SessionSpec`
and :class:`~repro.serving.tenants.TenantSpec` are) and re-exported by
:mod:`repro.api`.

The flat fields are shorthand for the paper's single-engine setup: ``model``,
``replicas``, ``scheduler`` and ``router`` describe the one ``"default"``
pool of :attr:`ExperimentSpec.fleet`, and ``agent``, ``workload`` and
``agent_config`` the one unlabelled traffic class.  Their results are
golden-pinned bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.agents import AgentConfig
from repro.agents.registry import AGENT_CLASSES, available_agents
from repro.api.codec import from_dict
from repro.llm.hardware import HardwareSpec
from repro.llm.models import get_model
from repro.llm.scheduler import SCHEDULER_POLICIES, available_scheduler_policies
from repro.llm.speculative import SpeculativeSpec
from repro.serving.admission import AdmissionSpec
from repro.serving.autoscaler import AutoscalerSpec
from repro.serving.cluster import ROUTER_POLICIES, available_router_policies
from repro.serving.sessions import SessionSpec
from repro.serving.shapes import RateShape, build_shape
from repro.serving.tenants import TenantSpec
from repro.workloads import available_workloads

#: Arrival processes understood by the experiment runners.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("single", "poisson", "uniform")

#: Agents that run without a toolset.
TOOLLESS_AGENTS: Tuple[str, ...] = ("cot", "chatbot")

#: Flat fields that describe the default pool; declared pools carry their own.
FLAT_FLEET_FIELDS: Tuple[str, ...] = ("model", "replicas", "scheduler", "router")


@dataclass(frozen=True)
class ArrivalSpec:
    """How requests reach the system: a traffic program, not just a rate.

    * ``single`` -- one request at a time, back to back (the paper's
      characterization setup; Section IV-A/IV-B).
    * ``poisson`` -- open-loop Poisson arrivals at ``qps`` (Section IV-C).
    * ``uniform`` -- open-loop deterministic arrivals at ``qps``.

    Open-loop processes optionally carry a ``shape``: a
    :class:`~repro.serving.shapes.RateShape` modulating the base rate over
    time (the effective rate at ``t`` is ``qps * shape.level(t)``) --
    ``constant`` | ``ramp`` | ``square-wave`` | ``diurnal`` | ``trace`` |
    ``piecewise``, from the :mod:`repro.serving.shapes` registry.  A bare
    shape name is shorthand for the shape with default parameters.
    ``shape=None`` (and the identity ``ConstantShape(1.0)``) is the
    constant-rate Poisson or deterministic process, golden-pinned
    bit-for-bit.

    ``duration_s`` switches the plan from count semantics (exactly
    ``num_requests`` arrivals) to span semantics: every arrival inside
    ``[0, duration_s]``, with ``num_requests`` as a safety cap.

    ``tenants`` optionally attaches a
    :class:`~repro.serving.tenants.TenantSpec`: every arrival is labelled
    with a tenant drawn from a Zipf-skewed user population.
    ``tenants=None`` reproduces the untenanted plans bit-for-bit.

    ``sessions`` optionally attaches a
    :class:`~repro.serving.sessions.SessionSpec`: every planned arrival
    becomes the *first turn* of a multi-turn conversation whose later turns
    share a growing prefix and re-enter the cluster closed-loop after a
    think-time gap.  ``sessions=None`` reproduces the single-shot model
    bit-for-bit.
    """

    process: str = "single"
    qps: Optional[float] = None
    num_requests: int = 20
    task_pool_size: int = 48
    shape: Optional[RateShape] = None
    duration_s: Optional[float] = None
    tenants: Optional[TenantSpec] = None
    sessions: Optional[SessionSpec] = None

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; known: {list(ARRIVAL_PROCESSES)}"
            )
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.task_pool_size < 1:
            raise ValueError("task_pool_size must be >= 1")
        if self.process in ("poisson", "uniform"):
            if self.qps is None or self.qps <= 0:
                raise ValueError(f"{self.process} arrivals require qps > 0")
        elif self.qps is not None:
            raise ValueError(f"{self.process} arrivals do not take a qps")
        if isinstance(self.shape, str):
            object.__setattr__(self, "shape", build_shape(self.shape))
        if self.shape is not None:
            if self.process not in ("poisson", "uniform"):
                raise ValueError(
                    f"{self.process} arrivals do not take a rate shape "
                    "(shapes modulate open-loop processes)"
                )
            if not isinstance(self.shape, RateShape):
                raise ValueError(
                    f"arrival shape must be a RateShape (or a registered shape "
                    f"name), got {self.shape!r}"
                )
            if self.shape.max_level <= 0:
                raise ValueError("arrival shape never reaches a positive rate")
        if self.duration_s is not None:
            if self.process not in ("poisson", "uniform"):
                raise ValueError(
                    f"{self.process} arrivals do not take a duration_s"
                )
            if self.duration_s <= 0:
                raise ValueError("arrival duration_s must be > 0 (or None)")
        if self.tenants is not None:
            if self.process not in ("poisson", "uniform"):
                raise ValueError(
                    f"{self.process} arrivals do not take a tenant population "
                    "(tenants label open-loop arrivals)"
                )
            if not isinstance(self.tenants, TenantSpec):
                raise ValueError(
                    f"arrival tenants must be a TenantSpec, got {self.tenants!r}"
                )
        if self.sessions is not None:
            if self.process not in ("poisson", "uniform"):
                raise ValueError(
                    f"{self.process} arrivals do not take sessions "
                    "(sessions re-enter an open-loop serving system)"
                )
            if not isinstance(self.sessions, SessionSpec):
                raise ValueError(
                    f"arrival sessions must be a SessionSpec, got {self.sessions!r}"
                )


@dataclass(frozen=True)
class MeasurementSpec:
    """What part of the run contributes to reported metrics, and the SLOs.

    ``warmup_requests`` earliest-*completing* requests are excluded from the
    reported metrics, mimicking the warm-up window real serving measurements
    discard: for serving runs the measured window (duration, energy, GPU
    runtime, KV stats) opens at the instant the last warm-up request
    completes, and the latency/accuracy distributions and request counts
    cover only the remaining requests; characterization runs drop the first
    ``warmup_requests`` observations.  The default measures everything, which
    is what the paper's single-engine experiments do.

    ``slo_p95_s`` declares the experiment's end-to-end p95 latency SLO, and
    ``class_slos`` overrides it per traffic class (``(("chat", 2.5), ...)``).
    Declared SLOs are what serving results report *SLO attainment* against
    (the fraction of measured requests whose latency met their class's SLO),
    and what the ``slo-shed`` admission policy protects when its spec does
    not carry an explicit target.
    """

    warmup_requests: int = 0
    slo_p95_s: Optional[float] = None
    class_slos: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.warmup_requests < 0:
            raise ValueError("warmup_requests must be >= 0")
        if self.slo_p95_s is not None and self.slo_p95_s <= 0:
            raise ValueError("slo_p95_s must be > 0 (or None)")
        if not isinstance(self.class_slos, tuple) or any(
            not isinstance(entry, tuple) for entry in self.class_slos
        ):
            object.__setattr__(
                self, "class_slos", tuple(tuple(entry) for entry in self.class_slos)
            )
        labels = [label for label, _ in self.class_slos]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate class_slos labels: {labels}")
        for label, slo in self.class_slos:
            if not label:
                raise ValueError("class_slos labels must be non-empty")
            if slo <= 0:
                raise ValueError(f"class_slos[{label!r}] must be > 0")

    def slo_for(self, traffic_class: Optional[str]) -> Optional[float]:
        """The p95 SLO governing ``traffic_class`` (class override, then default)."""
        if traffic_class is not None:
            for label, slo in self.class_slos:
                if label == traffic_class:
                    return slo
        return self.slo_p95_s


@dataclass(frozen=True)
class PoolSpec:
    """One named replica pool of a heterogeneous fleet.

    ``traffic_classes`` names the :class:`WeightedWorkload` labels this pool
    prefers; ``max_predicted_decode`` additionally (or instead) claims every
    request whose predicted decode length fits the bound.  ``None`` for
    ``enable_prefix_caching`` / ``kv_cache_fraction`` inherits the
    experiment defaults.

    ``hardware`` gives this pool its own GPU generation and tensor-parallel
    degree (a :class:`~repro.llm.hardware.HardwareSpec`; a bare catalog GPU
    name is accepted as shorthand), so pools in one fleet can run different
    perf/energy/cost curves and KV budgets.  ``None`` (and
    :attr:`ExperimentSpec.hardware` unset) keeps the model's
    :func:`~repro.llm.hardware.cluster_for_model` default bit-for-bit.
    """

    name: str
    model: str = "8b"
    replicas: int = 1
    scheduler: str = "fcfs"
    router: str = "round-robin"
    traffic_classes: Tuple[str, ...] = ()
    max_predicted_decode: Optional[int] = None
    accepts_spill: bool = True
    enable_prefix_caching: Optional[bool] = None
    kv_cache_fraction: Optional[float] = None
    # Chunked-prefill budget and speculative-decoding model for this pool's
    # engines (None = inherit the experiment defaults).
    prefill_chunk_tokens: Optional[int] = None
    speculative: Optional[SpeculativeSpec] = None
    # GPU generation / TP degree for this pool's engines (None = inherit the
    # experiment default, which itself defaults to cluster_for_model).
    hardware: Optional[HardwareSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be non-empty")
        if self.replicas < 1:
            raise ValueError(f"pool {self.name!r}: replicas must be >= 1")
        try:
            get_model(self.model)
        except KeyError as error:
            raise ValueError(f"pool {self.name!r}: {error.args[0]}") from None
        if self.scheduler.lower() not in SCHEDULER_POLICIES:
            raise ValueError(
                f"pool {self.name!r}: unknown scheduler policy {self.scheduler!r}; "
                f"known: {available_scheduler_policies()}"
            )
        if self.router.lower() not in ROUTER_POLICIES:
            raise ValueError(
                f"pool {self.name!r}: unknown router policy {self.router!r}; "
                f"known: {available_router_policies()}"
            )
        if self.max_predicted_decode is not None and self.max_predicted_decode < 1:
            raise ValueError(f"pool {self.name!r}: max_predicted_decode must be >= 1")
        if self.kv_cache_fraction is not None and not 0 < self.kv_cache_fraction <= 1:
            raise ValueError(
                f"pool {self.name!r}: kv_cache_fraction must be in (0, 1] (or None)"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ValueError(
                f"pool {self.name!r}: prefill_chunk_tokens must be >= 1 (or None)"
            )
        if self.speculative is not None and not isinstance(
            self.speculative, SpeculativeSpec
        ):
            raise ValueError(
                f"pool {self.name!r}: speculative must be a SpeculativeSpec, "
                f"got {self.speculative!r}"
            )
        if isinstance(self.hardware, str):
            object.__setattr__(self, "hardware", HardwareSpec(gpu=self.hardware))
        if self.hardware is not None:
            if not isinstance(self.hardware, HardwareSpec):
                raise ValueError(
                    f"pool {self.name!r}: hardware must be a HardwareSpec "
                    f"(or a catalog GPU name), got {self.hardware!r}"
                )
            try:
                self.hardware.resolve().kv_cache_bytes(get_model(self.model))
            except ValueError as error:
                raise ValueError(f"pool {self.name!r}: {error}") from None
        if not isinstance(self.traffic_classes, tuple):
            object.__setattr__(self, "traffic_classes", tuple(self.traffic_classes))


@dataclass(frozen=True)
class WeightedWorkload:
    """One traffic class of a workload mixture: an (agent, workload) pair.

    ``name`` labels the class (defaults to the workload name); the mixture
    load generator tags every sampled request with it, and pools claim
    classes through :attr:`PoolSpec.traffic_classes`.  ``agent_config=None``
    inherits the experiment-level agent config.

    ``shape`` optionally gives this class its own
    :class:`~repro.serving.shapes.RateShape` (a bare name is accepted like
    :attr:`ArrivalSpec.shape`): the class arrives at
    ``qps * normalized_weight * arrival_shape.level(t) * shape.level(t)``,
    so one class can burst while the others stay steady -- the Table IV
    scenario of agent spikes over a constant chat floor.

    ``tenants`` optionally gives this class its own
    :class:`~repro.serving.tenants.TenantSpec` user population (overriding
    the :attr:`ArrivalSpec.tenants` default for this class).

    ``sessions`` optionally gives this class its own
    :class:`~repro.serving.sessions.SessionSpec` conversation shape
    (overriding the :attr:`ArrivalSpec.sessions` default for this class).
    A chat class can run multi-turn conversations while a batch class stays
    single-shot.
    """

    agent: str = "react"
    workload: str = "hotpotqa"
    weight: float = 1.0
    name: str = ""
    agent_config: Optional[AgentConfig] = None
    shape: Optional[RateShape] = None
    tenants: Optional[TenantSpec] = None
    sessions: Optional[SessionSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", self.workload)
        if self.agent.lower() not in AGENT_CLASSES:
            raise ValueError(f"unknown agent {self.agent!r}; known: {available_agents()}")
        if self.workload.lower() not in available_workloads():
            raise ValueError(
                f"unknown workload {self.workload!r}; known: {available_workloads()}"
            )
        if self.weight <= 0:
            raise ValueError(f"traffic class {self.name!r}: weight must be > 0")
        if isinstance(self.shape, str):
            object.__setattr__(self, "shape", build_shape(self.shape))
        if self.shape is not None and not isinstance(self.shape, RateShape):
            raise ValueError(
                f"traffic class {self.name!r}: shape must be a RateShape "
                f"(or a registered shape name), got {self.shape!r}"
            )
        if self.shape is not None and self.shape.max_level <= 0:
            raise ValueError(
                f"traffic class {self.name!r}: shape never reaches a positive rate"
            )
        if self.tenants is not None and not isinstance(self.tenants, TenantSpec):
            raise ValueError(
                f"traffic class {self.name!r}: tenants must be a TenantSpec, "
                f"got {self.tenants!r}"
            )
        if self.sessions is not None and not isinstance(self.sessions, SessionSpec):
            raise ValueError(
                f"traffic class {self.name!r}: sessions must be a SessionSpec, "
                f"got {self.sessions!r}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully described.

    ``ExperimentSpec(replicas=1, scheduler="fcfs")`` driven through
    :func:`repro.api.run_experiment` is the paper's single-engine setup,
    golden-pinned bit-for-bit at the same seed; raising ``replicas`` and
    switching ``scheduler`` / ``router`` policies explores the multi-replica
    design space on the same workloads.

    The flat fleet fields (``model``, ``replicas``, ``scheduler``,
    ``router``) are shorthand for one ``"default"`` pool (see :attr:`fleet`)
    and may not be set beside ``pools``.  The flat ``agent``, ``workload``
    and ``agent_config`` are shorthand for one unlabelled traffic class;
    beside ``workloads`` they only name the random-stream namespace (and
    ``agent_config`` stays the classes' default).
    """

    agent: str = "react"
    workload: str = "hotpotqa"
    model: str = "8b"
    replicas: int = 1
    scheduler: str = "fcfs"
    router: str = "round-robin"
    enable_prefix_caching: bool = True
    agent_config: AgentConfig = field(default_factory=AgentConfig)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)
    seed: int = 0
    # Admission policy guarding the serving door (None = the open door).  A
    # bare policy name is accepted as shorthand for AdmissionSpec(policy=name).
    admission: Optional[AdmissionSpec] = None
    # -- fleet extensions (empty pools/workloads = the flat shorthand) -------
    pools: Tuple[PoolSpec, ...] = ()
    workloads: Tuple[WeightedWorkload, ...] = ()
    autoscaler: Optional[AutoscalerSpec] = None
    # Relative error of the decode-length predictor used by SJF scheduling
    # and decode-length pool classification (0.0 = perfect oracle).
    predictor_error: float = 0.0
    # Engine batch-size cap (vLLM's max_num_seqs; None = engine default).
    # Lowering it forces requests to contend at the scheduler's admission
    # door, which is where admission-order policies (priority, sjf, vtc)
    # actually differ from fcfs.
    max_num_seqs: Optional[int] = None
    # Fraction of the hardware-derived KV block budget each replica gets
    # (1.0 = the full budget).  Shrinking it models a smaller prefix-cache
    # working set: warm conversation prefixes are evicted sooner, which is
    # the capacity axis of the sessions study.
    kv_cache_fraction: float = 1.0
    # Chunked prefill: per-step budget of prompt tokens each engine computes,
    # co-scheduled with decode tokens in one mixed roofline step.  None (the
    # default) keeps atomic prefill, golden-pinned bit-for-bit.
    prefill_chunk_tokens: Optional[int] = None
    # Speculative decoding acceptance model; None (the default) disables it,
    # golden-pinned bit-for-bit.
    speculative: Optional[SpeculativeSpec] = None
    # Default hardware for every pool's engines (a HardwareSpec; bare catalog
    # GPU names accepted; PoolSpec.hardware overrides it per pool).  None
    # (the default) keeps cluster_for_model, golden-pinned bit-for-bit.
    hardware: Optional[HardwareSpec] = None
    # How the cluster picks a pool for each request: "static" (the
    # traffic-class / predicted-decode classification) or "cost-aware" (the
    # cheapest pool whose predicted decode still meets the request's class
    # SLO; classes without a declared SLO fall back to static).
    pool_classification: str = "static"

    def __post_init__(self) -> None:
        if self.agent.lower() not in AGENT_CLASSES:
            raise ValueError(f"unknown agent {self.agent!r}; known: {available_agents()}")
        if self.workload.lower() not in available_workloads():
            raise ValueError(
                f"unknown workload {self.workload!r}; known: {available_workloads()}"
            )
        if self.measurement.warmup_requests >= self.arrival.num_requests:
            raise ValueError(
                f"measurement.warmup_requests must be smaller than "
                f"arrival.num_requests ({self.measurement.warmup_requests} >= "
                f"{self.arrival.num_requests}: the measured window would be empty)"
            )
        if self.predictor_error < 0:
            raise ValueError("predictor_error must be >= 0")
        if self.max_num_seqs is not None and self.max_num_seqs < 1:
            raise ValueError("max_num_seqs must be >= 1 (or None for the default)")
        if not 0 < self.kv_cache_fraction <= 1:
            raise ValueError("kv_cache_fraction must be in (0, 1]")
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1 (or None)")
        if self.speculative is not None and not isinstance(
            self.speculative, SpeculativeSpec
        ):
            raise ValueError(
                f"speculative must be a SpeculativeSpec, got {self.speculative!r}"
            )
        if isinstance(self.hardware, str):
            object.__setattr__(self, "hardware", HardwareSpec(gpu=self.hardware))
        if self.hardware is not None and not isinstance(self.hardware, HardwareSpec):
            raise ValueError(
                f"hardware must be a HardwareSpec (or a catalog GPU name), "
                f"got {self.hardware!r}"
            )
        if self.pool_classification not in ("static", "cost-aware"):
            raise ValueError(
                f"unknown pool_classification {self.pool_classification!r}; "
                "known: ['static', 'cost-aware']"
            )
        if self.pool_classification == "cost-aware" and (
            self.measurement.slo_p95_s is None and not self.measurement.class_slos
        ):
            raise ValueError(
                "cost-aware pool classification needs an SLO to route against: "
                "declare measurement.slo_p95_s or measurement.class_slos"
            )
        self._validate_fleet()
        self._validate_admission()

    def _validate_fleet(self) -> None:
        if not isinstance(self.pools, tuple):
            object.__setattr__(self, "pools", tuple(self.pools))
        if not isinstance(self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.pools:
            ignored = [
                spec_field.name
                for spec_field in fields(self)
                if spec_field.name in FLAT_FLEET_FIELDS
                and getattr(self, spec_field.name) != spec_field.default
            ]
            if ignored:
                raise ValueError(
                    f"flat fleet fields {ignored} would be ignored beside declared "
                    "pools: set them on each PoolSpec instead"
                )
        pool_names = [pool.name for pool in self.pools]
        if len(set(pool_names)) != len(pool_names):
            raise ValueError(f"duplicate pool names: {pool_names}")
        # Building the fleet validates the default pool the flat fields describe.
        fleet = self.fleet
        class_labels = [mix.name for mix in self.workloads]
        if len(set(class_labels)) != len(class_labels):
            raise ValueError(f"duplicate traffic-class labels: {class_labels}")
        if self.workloads:
            if self.arrival.process not in ("poisson", "uniform"):
                raise ValueError(
                    "workload mixtures require an open-loop arrival process "
                    "(poisson or uniform)"
                )
            known = {label.lower() for label in class_labels}
            for pool in fleet:
                for traffic_class in pool.traffic_classes:
                    if traffic_class.lower() not in known:
                        raise ValueError(
                            f"pool {pool.name!r} claims unknown traffic class "
                            f"{traffic_class!r}; mixture classes: {sorted(known)}"
                        )
        if self.hardware is not None:
            # Pools without their own hardware inherit the experiment default;
            # their (possibly different) model must fit it too.
            for pool in fleet:
                if pool.hardware is None:
                    try:
                        self.hardware.resolve().kv_cache_bytes(get_model(pool.model))
                    except ValueError as error:
                        raise ValueError(f"pool {pool.name!r}: {error}") from None
        if self.autoscaler is not None:
            if self.arrival.process == "single":
                raise ValueError(
                    "autoscaling requires a serving arrival process, not 'single'"
                )
            fleet_names = [pool.name for pool in fleet]
            if self.autoscaler.pool and self.autoscaler.pool not in fleet_names:
                raise ValueError(
                    f"autoscaler targets unknown pool {self.autoscaler.pool!r}; "
                    f"known: {fleet_names}"
                )

    def _validate_admission(self) -> None:
        known_classes = {mix.name for mix in self.workloads}
        for label, _ in self.measurement.class_slos:
            if self.workloads and label not in known_classes:
                raise ValueError(
                    f"measurement.class_slos names unknown traffic class "
                    f"{label!r}; mixture classes: {sorted(known_classes)}"
                )
        if self.admission is None:
            return
        if isinstance(self.admission, str):
            object.__setattr__(self, "admission", AdmissionSpec(policy=self.admission))
        admission: AdmissionSpec = self.admission
        if self.arrival.process == "single":
            raise ValueError(
                "admission control requires a serving arrival process, not 'single'"
            )
        if admission.per_class and not self.workloads:
            raise ValueError(
                "per_class admission overrides require a workload mixture"
            )
        for label, _ in admission.per_class:
            if label not in known_classes:
                raise ValueError(
                    f"admission per_class names unknown traffic class {label!r}; "
                    f"mixture classes: {sorted(known_classes)}"
                )
        for scope, sub in (("admission", admission), *admission.per_class):
            if sub.protect_class:
                if not self.workloads:
                    raise ValueError(
                        "admission protect_class requires a workload mixture"
                    )
                if sub.protect_class not in known_classes:
                    raise ValueError(
                        f"admission protect_class names unknown traffic class "
                        f"{sub.protect_class!r}; mixture classes: {sorted(known_classes)}"
                    )
            if sub.cooperative and self.autoscaler is None:
                raise ValueError(
                    f"{scope!r} cooperative admission requires an autoscaler "
                    "(it consults in-flight scale-ups)"
                )
            if sub.policy.lower() == "slo-shed" and sub.slo_p95_s is None:
                resolved = self.measurement.slo_for(sub.protect_class or None)
                if resolved is None:
                    raise ValueError(
                        f"{scope!r} admission policy 'slo-shed' needs an SLO: set "
                        "slo_p95_s on the admission spec or declare one in "
                        "measurement (slo_p95_s / class_slos)"
                    )

    # -- derived -------------------------------------------------------------
    @property
    def fleet(self) -> Tuple[PoolSpec, ...]:
        """The replica pools: the declared ``pools``, or the one ``"default"``
        pool the flat ``model``/``replicas``/``scheduler``/``router`` describe.

        Pool fields left ``None`` inherit the experiment defaults (prefix
        caching, KV fraction, chunked prefill, speculation, hardware).
        """
        if self.pools:
            return self.pools
        return (
            PoolSpec(
                name="default",
                model=self.model,
                replicas=self.replicas,
                scheduler=self.scheduler,
                router=self.router,
            ),
        )

    def with_overrides(self, **overrides: Any) -> "ExperimentSpec":
        """Copy with fields replaced (validation reruns on construction)."""
        return replace(self, **overrides)

    def at_qps(self, qps: float, **arrival_overrides: Any) -> "ExperimentSpec":
        """Copy targeting open-loop Poisson arrivals at ``qps``."""
        arrival = replace(self.arrival, process="poisson", qps=qps, **arrival_overrides)
        return replace(self, arrival=arrival)

    # -- serialisation --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready); inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (see :mod:`repro.api.codec`)."""
        return from_dict(cls, payload)
