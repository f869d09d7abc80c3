"""Shaped traffic programs -- plan generation and a declarative mini-study.

Two timed probes of the traffic-program surface:

* shaped-plan generation: a thinned square-wave Poisson plan plus a
  superposed per-class shaped mixture, asserting the burst really
  concentrates arrivals inside its window (the thinning must modulate,
  not just decorate), and
* a small fleet-sizing study (2 fleets x steady/burst on the Table IV
  chat+agent mixture) whose replica-seconds vs chat-p95 Pareto frontier
  must stay non-trivial: the lean fleet stays the cheapest frontier
  point and the frontier is never empty.
"""

from repro.analysis import fleet_sizing_study
from repro.serving.loadgen import arrival_plan
from repro.serving.shapes import SquareWaveShape
from repro.sim.distributions import RandomStream
from repro.workloads import create_workload

BURST = SquareWaveShape(
    base_level=0.25, burst_level=4.0, period_s=40.0, burst_start_s=10.0,
    burst_s=10.0,
)


def _generate_plans():
    chat = create_workload("sharegpt", seed=0)
    agent = create_workload("hotpotqa", seed=0)
    single = arrival_plan(
        [(None, chat, 1.0)], qps=4.0, shape=BURST, num_requests=400,
        stream=RandomStream(0, "bench/shaped"), task_pool_size=8,
    )
    mixture = arrival_plan(
        [("chat", chat, 0.5, None), ("agent", agent, 0.5, BURST)],
        qps=4.0, num_requests=400, stream=RandomStream(0, "bench/mixture"),
        task_pool_size=8,
    )
    return single, mixture


def test_shaped_plan_generation(run_once):
    single, mixture = run_once(_generate_plans)

    def burst_fraction(times):
        return len([t for t in times if 10.0 <= (t % 40.0) < 20.0]) / len(times)

    # The burst window is 1/4 of the period but carries 4/4.75 of the mass.
    assert burst_fraction(single.arrival_times) > 0.6
    agent_times = [
        t for t, label in zip(mixture.arrival_times, mixture.traffic_classes)
        if label == "agent"
    ]
    chat_times = [
        t for t, label in zip(mixture.arrival_times, mixture.traffic_classes)
        if label == "chat"
    ]
    # Only the agent class bursts; chat stays roughly uniform.
    assert burst_fraction(agent_times) > 0.6
    assert burst_fraction(chat_times) < 0.45
    assert mixture.arrival_times == sorted(mixture.arrival_times)


def test_fleet_sizing_mini_study(run_once):
    study = run_once(
        fleet_sizing_study,
        qps=5.0,
        num_requests=24,
        fleets=((1, 2), (2, 3)),
    )
    print()
    print(study.format())

    # 2 fleets x 2 traffic shapes, all served.
    assert len(study.result.points) == 4
    for point in study.result.points:
        assert point.outcome.num_completed == 24

    for traffic in ("steady", "burst"):
        frontier = study.frontier(traffic=traffic)
        assert frontier, traffic
        # The lean fleet is always the cheapest frontier point.
        assert frontier[0].point.labels["fleet"] == "chat1+agent2"
        # Frontier costs are strictly increasing (non-trivial ordering).
        costs = [entry.cost for entry in frontier]
        assert costs == sorted(costs)
