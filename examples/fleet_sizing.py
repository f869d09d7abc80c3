"""Cost-optimal fleet sizing: a declarative study with a Pareto answer.

Which fleet should you buy for the Table IV chat+agent mixture?  This
example declares the question as a :class:`~repro.api.StudySpec` sweeping
two non-qps axes around one base spec:

* ``fleet`` (the ``pools`` field) -- replica splits between a chat pool
  (least-loaded routing) and an agent pool (SJF by predicted decode,
  prefix-affinity routing), from a lean 3-replica fleet to a heavy
  6-replica one, including a misbalanced ``chat1+agent3`` candidate,
* ``traffic`` (the ``arrival.shape`` field) -- steady arrivals vs a
  square-wave burst at 6x the base level for a third of each period
  (the agent-hour spike).

Every grid point runs the same weighted mixture at the same seed, and the
:class:`~repro.api.StudyResult` answers the planning question directly:
``pareto_frontier(cost="replica_seconds", quality="p95_latency:chat")`` --
what does each extra replica-second buy in interactive-class latency?

Expected read: under steady traffic the misbalanced fleet clings to the
frontier, but the burst pushes it off -- an undersized chat pool cannot
hide once the spike lands -- while the lean and balanced fleets trade
cost for chat p95 along the frontier.

Run with::

    python examples/fleet_sizing.py
"""

from __future__ import annotations

from repro.analysis import fleet_sizing_study


def main() -> None:
    study = fleet_sizing_study()
    print(study.format())
    print()

    for traffic in ("steady", "burst"):
        print(study.format_frontier(traffic=traffic))
        print()

    steady = study.frontier_labels("fleet", traffic="steady")
    burst = study.frontier_labels("fleet", traffic="burst")
    print(f"steady-traffic frontier: {' -> '.join(steady)}")
    print(f"burst-traffic frontier:  {' -> '.join(burst)}")
    dropped = [fleet for fleet in steady if fleet not in burst]
    if dropped:
        print(
            f"the burst pushes {', '.join(dropped)} off the frontier: "
            "an undersized chat pool cannot hide once the spike lands"
        )
    cheapest, best = burst[0], burst[-1]
    print(
        f"under burst traffic, {best} buys the best chat p95 and {cheapest} "
        "is the cheapest frontier fleet -- the replica-seconds in between "
        "are the price of interactive latency"
    )


if __name__ == "__main__":
    main()
