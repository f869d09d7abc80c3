"""Heterogeneous fleets -- the cost frontier and the hardware off-switch.

Two lanes: a mini hardware-layout study asserting the headline (the mixed
H100+L4 fleet dominates the homogeneous A100 fleet sized to the same chat
attainment on dollars per 1k served tokens, and it is the best frontier
layout within a cost budget), and an identity check pinning that a spec
with ``hardware`` left unset reproduces the explicit paper-default hardware
bit for bit -- pinning hardware must cost nothing when it names the
default.
"""

from repro.analysis import hetero_fleet_study
from repro.api import ArrivalSpec, ExperimentSpec, HardwareSpec, run_experiment

from bench_utils import scaled


def test_hetero_fleet_cost_frontier(run_once):
    study = run_once(hetero_fleet_study, num_requests=scaled(48))
    print()
    print(study.format())
    for traffic in ("steady", "burst"):
        print(study.format_frontier(traffic=traffic))

    # The headline: under both traffic programs the mixed fleet serves
    # tokens cheaper than the attainment-matched homogeneous A100 fleet
    # while holding chat attainment at least as high -- the homogeneous
    # fleet cannot sit on the frontier, the mixed fleet does.
    for traffic in ("steady", "burst"):
        assert study.mixed_dominates(traffic)
        fleets = study.frontier_labels("fleet", traffic=traffic)
        assert "mixed-h100-l4" in fleets
        assert "a100-heavy" not in fleets

    # The planner question: under a $/1k-tokens budget the heavy A100
    # fleet cannot meet, the best frontier layout is the mixed fleet.
    best = study.best_within(0.003, traffic="burst")
    print(
        f"best under $0.003/1k tokens: {best.point.labels['fleet']} "
        f"cost={best.cost:.4g} quality={best.quality:.4g}"
    )
    assert best.point.labels["fleet"] == "mixed-h100-l4"
    assert best.cost <= 0.003
    assert best.quality >= study.metric(
        "slo_attainment:chat", traffic="burst", fleet="a100-heavy"
    )


def test_hardware_unset_is_identity(run_once):
    arrival = ArrivalSpec(
        process="poisson", qps=4.0, num_requests=scaled(16), task_pool_size=8
    )
    base = ExperimentSpec(
        agent="chatbot", workload="sharegpt", arrival=arrival, max_num_seqs=4
    )
    pinned = ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        arrival=arrival,
        max_num_seqs=4,
        hardware=HardwareSpec(gpu="A100-40GB"),
    )

    def both():
        return run_experiment(base), run_experiment(pinned)

    default_run, pinned_run = run_once(both)
    print()
    print(f"hardware unset:  {default_run.summary()}")
    print(f"paper default:   {pinned_run.summary()}")

    # Unset means the paper default: explicitly pinning A100-40GB changes
    # nothing, bit for bit, including the new cost accounting.
    assert pinned_run.latencies == default_run.latencies
    assert pinned_run.summary() == default_run.summary()
