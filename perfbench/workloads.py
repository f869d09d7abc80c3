"""The benchmark's named workloads: the ``ExperimentSpec``s one pass runs.

A workload at seed ``s`` is a small seed study: independent experiments
whose spec seeds are derived from ``s`` (:func:`sub_seed`).  The run's seed
reaches the simulator only through ``ExperimentSpec.seed``, so the same seed
gives the same inputs.  Host cost per experiment swings with its seed
(agent search depth, backlog and preemption dynamics), so each workload
spreads its work over several seeds, which keeps the spread of the
host-time metrics across the runs' seeds small.

Each builder takes ``(seed, scale, done)`` and returns an iterable of specs.
``scale`` multiplies the request/task counts (1.0 = the benchmark size; the
tests use a tiny one).  ``done`` is the list of ``ResultSet``s the caller
has run so far, which lets :func:`characterization` stop on a work quota.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

#: LLM calls each Reflexion/LATS cell of ``characterization`` runs up to.
CHARACTERIZATION_CALLS = 1500
#: Tasks of each chatbot cell of ``characterization``.
CHARACTERIZATION_CHAT_TASKS = 16


def sub_seed(seed: int, index: int) -> int:
    """Spec seed of experiment ``index`` of a workload run at ``seed``."""
    return seed * 1000 + index


def _count(full: int, scale: float) -> int:
    return max(2, round(full * scale))


def characterization(
    seed: int, scale: float = 1.0, done: Sequence = ()
) -> Iterable["ExperimentSpec"]:
    """Table III mix at exact decode: ShareGPT chat, Reflexion, LATS; 8B and 70B.

    Each search-agent (Reflexion, LATS) cell runs one-task experiments,
    each on its own seed, until the cell has issued
    ``CHARACTERIZATION_CALLS`` LLM calls: how many calls a task takes
    depends heavily on when the search succeeds, so a fixed task count
    would make the amount of work, and the host time, swing with the seed.
    Each chatbot cell is one experiment of ``CHARACTERIZATION_CHAT_TASKS``
    single-call tasks.
    """
    from repro.analysis.tables import TABLE3_AGENT_CONFIGS
    from repro.agents import AgentConfig
    from repro.api import ArrivalSpec, ExperimentSpec

    cells = [("chatbot", "sharegpt", AgentConfig())] + [
        (agent, "hotpotqa", config) for agent, config in TABLE3_AGENT_CONFIGS.items()
    ]
    chat = ArrivalSpec(
        process="single", num_requests=_count(CHARACTERIZATION_CHAT_TASKS, scale)
    )
    search = ArrivalSpec(process="single", num_requests=1)
    quota = CHARACTERIZATION_CALLS * scale
    index = 0
    for model in ("8b", "70b"):
        for agent, workload, config in cells:
            calls = 0
            while True:
                yield ExperimentSpec(
                    agent=agent,
                    workload=workload,
                    model=model,
                    agent_config=config,
                    arrival=chat if agent == "chatbot" else search,
                    seed=sub_seed(seed, index),
                )
                index += 1
                if agent == "chatbot":
                    break
                calls += sum(
                    len(observation.result.llm_calls)
                    for observation in done[-1].characterization.observations
                )
                if calls >= quota:
                    break


def fleet16(seed: int, scale: float = 1.0, done: Sequence = ()) -> Iterable["ExperimentSpec"]:
    """ShareGPT chat on 16 least-loaded replicas, open-loop Poisson at 32 qps."""
    from repro.api import ArrivalSpec, ExperimentSpec

    requests = _count(300, scale)
    return [
        ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            replicas=16,
            router="least-loaded",
            arrival=ArrivalSpec(
                process="poisson", qps=32.0, num_requests=requests, task_pool_size=requests
            ),
            seed=sub_seed(seed, index),
        )
        for index in range(3)
    ]


def kv1k(seed: int, scale: float = 1.0, done: Sequence = ()) -> Iterable["ExperimentSpec"]:
    """Chat+ReAct mixture under vtc with ~1k requests in flight on one engine."""
    from repro.agents import AgentConfig
    from repro.api import ArrivalSpec, ExperimentSpec, TenantSpec, WeightedWorkload

    requests = _count(1400, scale)
    return [
        ExperimentSpec(
            workloads=(
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", weight=0.6, name="chat"
                ),
                WeightedWorkload(
                    agent="react", workload="hotpotqa", weight=0.4, name="agent"
                ),
            ),
            agent_config=AgentConfig(max_iterations=4),
            scheduler="vtc",
            max_num_seqs=4096,
            arrival=ArrivalSpec(
                process="poisson",
                qps=64.0,
                num_requests=requests,
                task_pool_size=requests,
                tenants=TenantSpec(num_users=1_000_000, skew=1.6, num_apps=40),
            ),
            seed=sub_seed(seed, 0),
        )
    ]


def hetero_sessions(
    seed: int, scale: float = 1.0, done: Sequence = ()
) -> Iterable["ExperimentSpec"]:
    """3-turn chat sessions on H100s beside a shed, autoscaled ReAct pool on L4s."""
    from repro.agents import AgentConfig
    from repro.api import (
        AdmissionSpec,
        ArrivalSpec,
        AutoscalerSpec,
        ExperimentSpec,
        MeasurementSpec,
        PoolSpec,
        SessionSpec,
        WeightedWorkload,
    )
    from repro.serving.shapes import SquareWaveShape

    interactions = _count(400, scale)
    return [
        ExperimentSpec(
            pools=(
                PoolSpec(
                    name="chat",
                    replicas=2,
                    router="session-affinity",
                    traffic_classes=("chat",),
                    hardware="H100-80GB",
                ),
                PoolSpec(
                    name="agent",
                    replicas=1,
                    scheduler="sjf-by-predicted-decode",
                    router="prefix-affinity",
                    traffic_classes=("agent",),
                    hardware="L4",
                ),
            ),
            workloads=(
                WeightedWorkload(
                    agent="chatbot",
                    workload="sharegpt",
                    weight=0.6,
                    name="chat",
                    sessions=SessionSpec(turns=3),
                ),
                WeightedWorkload(
                    agent="react", workload="hotpotqa", weight=0.4, name="agent"
                ),
            ),
            agent_config=AgentConfig(max_iterations=5),
            arrival=ArrivalSpec(
                process="poisson",
                qps=4.0,
                num_requests=interactions,
                task_pool_size=interactions,
                shape=SquareWaveShape(
                    base_level=0.5,
                    burst_level=2.5,
                    period_s=24.0,
                    burst_start_s=8.0,
                    burst_s=8.0,
                ),
            ),
            admission=AdmissionSpec(
                per_class=(
                    ("agent", AdmissionSpec(policy="slo-shed", protect_class="chat")),
                )
            ),
            autoscaler=AutoscalerSpec(
                pool="agent",
                min_replicas=1,
                max_replicas=4,
                mode="predictive",
                forecaster="holt",
            ),
            measurement=MeasurementSpec(class_slos=(("chat", 10.0),)),
            seed=sub_seed(seed, index),
        )
        for index in range(2)
    ]


WORKLOADS: Dict[str, Callable[..., Iterable["ExperimentSpec"]]] = {
    "characterization": characterization,
    "fleet16": fleet16,
    "kv1k": kv1k,
    "hetero_sessions": hetero_sessions,
}
