"""Figure 15 -- few-shot prompting sweep for ReAct."""

from bench_utils import scaled

from repro.analysis import figure15


def test_fig15_few_shot_sweep(run_once):
    result = run_once(
        figure15,
        counts=(0, 1, 2, 3, 5),
        benchmarks=("hotpotqa", "webshop"),
        num_tasks=scaled(8),
        seed=0,
    )
    print()
    print(result.format())

    for benchmark in ("hotpotqa", "webshop"):
        points = {
            row["num_few_shot"]: row
            for row in result.rows()
            if row["benchmark"] == benchmark
        }

        # A few examples improve accuracy over zero-shot ...
        assert points[2]["accuracy"] >= points[0]["accuracy"]
        # ... with diminishing (or negative) returns beyond that.
        assert points[5]["accuracy"] <= points[2]["accuracy"] + 0.15

        # Average latency does not grow with more examples: better-guided
        # agents need fewer reasoning steps (the paper's counterintuitive
        # finding), even though each prompt is longer.
        assert points[3]["avg_latency_s"] <= points[0]["avg_latency_s"] * 1.25

        # Efficiency-optimal prompt uses at least one example.
        assert result.best_efficiency(workload=benchmark)["num_few_shot"] >= 1
