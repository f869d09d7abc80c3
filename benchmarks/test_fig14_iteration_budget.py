"""Figure 14 -- iteration-budget tuning for ReAct (latency, tail, accuracy)."""

from bench_utils import scaled

from repro.analysis import figure14


def test_fig14_iteration_budget_sweep(run_once):
    result = run_once(
        figure14,
        budgets={"hotpotqa": (3, 5, 10, 15, 25), "webshop": (5, 10, 20, 30)},
        num_tasks=scaled(8),
        seed=0,
    )
    print()
    print(result.format())

    for benchmark in ("hotpotqa", "webshop"):
        points = sorted(
            (row for row in result.rows() if row["benchmark"] == benchmark),
            key=lambda row: row["max_iterations"],
        )

        # Accuracy improves with budget, then saturates.
        assert points[-1]["accuracy"] >= points[0]["accuracy"]
        last_two_gain = points[-1]["accuracy"] - points[-2]["accuracy"]
        first_gain = points[1]["accuracy"] - points[0]["accuracy"]
        assert last_two_gain <= first_gain + 0.15

        # The p95 tail keeps growing with the budget even after accuracy
        # saturates (outlier tasks consume the full budget).
        assert points[-1]["p95_latency_s"] >= points[0]["p95_latency_s"]
        assert points[-1]["p95_latency_s"] >= points[-1]["avg_latency_s"]

        # The efficiency-optimal budget (blue marker) is below the maximum.
        best_efficiency = result.best_efficiency(workload=benchmark)
        assert best_efficiency["max_iterations"] < points[-1]["max_iterations"]
