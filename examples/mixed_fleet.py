"""Mixed-traffic elastic fleet: chatbot + agent traffic on pooled replicas.

The datacenter scenario of the paper (Table IV) serves interactive chatbot
traffic and long-running agent traffic on shared capacity.  This example
declares that scenario with the fleet vocabulary of the unified API:

* two :class:`~repro.api.PoolSpec` s -- a ``chat`` pool (least-loaded
  routing, autoscaled) and an ``agent`` pool (SJF scheduling by predicted
  decode length, prefix-affinity routing),
* a weighted :class:`~repro.api.WeightedWorkload` mixture -- 60 % ShareGPT
  chatbot turns, 40 % ReAct/HotpotQA agent requests, one Poisson arrival
  process, each request tagged with its traffic class so the cluster routes
  it to the right pool (with cross-pool spill under overload),
* an :class:`~repro.api.AutoscalerSpec` -- the chat pool grows (with a
  warm-up delay) when queue depth builds and drains back down when the
  burst passes, paying for capacity in replica-seconds.

The resulting :class:`~repro.api.ResultSet` reports the fleet view: per-pool
throughput/p95/energy/replica-seconds, per-class latency/accuracy, and the
scaling timeline.

Run with::

    python examples/mixed_fleet.py
"""

from __future__ import annotations

from repro.agents import AgentConfig
from repro.analysis import format_table
from repro.api import (
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    PoolSpec,
    WeightedWorkload,
    run_experiment,
)


def main() -> None:
    spec = ExperimentSpec(
        pools=(
            PoolSpec(
                name="chat",
                model="8b",
                replicas=1,
                router="least-loaded",
                traffic_classes=("chat",),
            ),
            PoolSpec(
                name="agent",
                model="8b",
                replicas=2,
                scheduler="sjf-by-predicted-decode",
                router="prefix-affinity",
                traffic_classes=("agent",),
            ),
        ),
        workloads=(
            WeightedWorkload(agent="chatbot", workload="sharegpt", weight=0.6, name="chat"),
            WeightedWorkload(agent="react", workload="hotpotqa", weight=0.4, name="agent"),
        ),
        autoscaler=AutoscalerSpec(
            pool="chat",
            min_replicas=1,
            max_replicas=3,
            check_interval_s=1.0,
            warmup_s=2.0,
            scale_up_pending_per_replica=2.0,
            scale_down_pending_per_replica=0.5,
        ),
        arrival=ArrivalSpec(process="poisson", qps=2.5, num_requests=30, task_pool_size=12),
        agent_config=AgentConfig(max_iterations=5),
        # Route and schedule on noisy decode-length predictions (20 % error)
        # instead of assuming a perfect oracle.
        predictor_error=0.2,
        seed=0,
    )

    outcome = run_experiment(spec)

    print("=== Mixed chatbot+agent traffic on a two-pool elastic fleet ===")
    for key, value in outcome.summary().items():
        print(f"{key:>22s}: {value if isinstance(value, str) else round(float(value), 3)}")
    print()
    print(format_table(outcome.per_pool_summary(), "Per-pool metrics"))
    print()
    print(format_table(outcome.per_class_summary(), "Per-traffic-class metrics"))
    print()
    events = outcome.serving.scaling_events
    print(f"Scaling timeline ({len(events)} events):")
    for event in events:
        print(
            f"  t={event.time:7.2f}s  {event.pool:<6s} {event.action:<6s} "
            f"-> {event.num_provisioned} provisioned  ({event.reason})"
        )


if __name__ == "__main__":
    main()
