"""Quickstart: characterise one AI agent on one benchmark.

Declares an experiment with the unified API -- a frozen
:class:`~repro.api.ExperimentSpec` run through
:func:`~repro.api.run_experiment` -- and prints the per-request cost profile
the paper reports: LLM/tool invocations, latency breakdown, GPU utilization,
token composition, and GPU energy.  A second spec shows the same workload
served open-loop on a multi-replica cluster.

Beyond the single-pool specs shown here, the same ``ExperimentSpec`` scales
to a heterogeneous elastic fleet (see ``examples/mixed_fleet.py``):

* ``pools=(PoolSpec(name=..., model=..., replicas=..., scheduler=...,
  router=..., traffic_classes=(...,)), ...)`` declares named replica pools
  with their own engine configuration; the cluster classifies each request
  (by traffic class or predicted decode length) and routes it to the right
  pool, spilling to less-loaded pools under overload,
* ``workloads=(WeightedWorkload(agent=..., workload=..., weight=...,
  name=...), ...)`` serves a weighted traffic mixture (e.g. chatbot + agent,
  the paper's Table IV datacenter scenario) through one arrival process,
* ``autoscaler=AutoscalerSpec(pool=..., min_replicas=..., max_replicas=...,
  warmup_s=...)`` grows/shrinks a pool from load signals (queue depth,
  rolling p95) at a replica-seconds cost reported in the ``ResultSet``,
* ``admission=AdmissionSpec(policy=..., per_class=(...,))`` guards the
  serving door with a policy from the ``repro.serving.admission`` registry
  (``unlimited`` | ``concurrency`` | ``token-bucket`` | ``slo-shed``), with
  per-traffic-class overrides -- e.g. shed agent load whenever the chat
  class's projected p95 would violate the SLO declared in
  ``MeasurementSpec(slo_p95_s=... / class_slos=...)``.  The ``ResultSet``
  then reports per-class rejection rates, shed-token counts, and SLO
  attainment (see ``examples/admission.py``).

Performance trajectory: CI's ``bench`` lane replays the ``benchmarks/``
suite under pytest-benchmark, uploads the run as a ``BENCH_ci.json``
artifact, and fails on a >25% mean regression against the committed
``benchmarks/BENCH_baseline.json`` -- refresh that baseline when a PR
intentionally changes performance.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.agents import AgentConfig
from repro.analysis import format_table
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment


def main() -> None:
    # -- declarative experiment: what to run, not how to wire it ------------
    spec = ExperimentSpec(
        agent="react",
        workload="hotpotqa",
        model="8b",
        enable_prefix_caching=True,
        agent_config=AgentConfig(max_iterations=7, num_few_shot=2),
        arrival=ArrivalSpec(process="single", num_requests=10),
        seed=0,
    )
    result = run_experiment(spec)

    print("=== ReAct on HotpotQA (Llama-3.1-8B, 1x A100-40GB) ===")
    print(f"requests:            {result.num_requests}")
    print(f"accuracy:            {result.accuracy * 100:.1f} %")
    print(f"mean latency:        {result.mean_latency:.1f} s   (p95 {result.latency_stats.p95:.1f} s)")
    print(f"LLM calls/request:   {result.mean_llm_calls:.1f}")
    print(f"tool calls/request:  {result.mean_tool_calls:.1f}")
    print(f"GPU energy/request:  {result.energy_wh_per_query:.2f} Wh")
    print()

    breakdown = result.latency_breakdown()
    print("Latency breakdown (fractions of end-to-end time):")
    for phase, fraction in breakdown.fractions.items():
        print(f"  {phase:<8s} {fraction * 100:5.1f} %")
    print()

    gpu = result.gpu_breakdown()
    print(f"GPU utilization: {gpu.utilization * 100:.1f} % "
          f"(prefill {gpu.fractions['prefill'] * 100:.1f} %, "
          f"decode {gpu.fractions['decode'] * 100:.1f} %, "
          f"idle {gpu.fractions['idle'] * 100:.1f} %)")
    print()

    tokens = result.token_breakdown()
    print(format_table([tokens.as_dict()], "Average prompt/output tokens per LLM call"))
    print()

    print("Per-request details:")
    rows = [
        {
            "task": obs.result.task_id,
            "latency_s": obs.result.e2e_latency,
            "llm_calls": obs.result.num_llm_calls,
            "tool_calls": obs.result.num_tool_calls,
            "correct": obs.result.answer_correct,
            "energy_wh": obs.energy_wh,
        }
        for obs in result.characterization.observations
    ]
    print(format_table(rows))
    print()

    # -- the same spec, served open-loop on a 2-replica cluster --------------
    serving_spec = spec.with_overrides(
        replicas=2,
        router="least-loaded",
        scheduler="fcfs",
        arrival=ArrivalSpec(process="poisson", qps=1.0, num_requests=16, task_pool_size=8),
    )
    serving = run_experiment(serving_spec)
    print("=== Same agent served at 1 QPS on 2 replicas (least-loaded routing) ===")
    for key, value in serving.summary().items():
        print(f"{key:>22s}: {value if isinstance(value, str) else round(float(value), 3)}")


if __name__ == "__main__":
    main()
