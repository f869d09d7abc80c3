"""Figure 16 -- sequential vs parallel test-time scaling on HotpotQA."""

from bench_utils import scaled

from repro.analysis import figure16


def test_fig16_sequential_vs_parallel_scaling(run_once):
    result = run_once(
        figure16,
        reflexion_trials=(2, 4, 8, 16),
        lats_expansions=(4, 8, 16),
        lats_children=(1, 4, 16),
        num_tasks=scaled(8),
        seed=0,
    )
    print()
    print(result.format())

    def sweep(scaling, parameter):
        rows = (row for row in result.rows() if row["scaling"] == scaling)
        return sorted(rows, key=lambda row: row[parameter])

    # Sequential scaling (Reflexion): more reflection trials -> more latency,
    # accuracy improves with diminishing returns.
    reflexion = sweep("reflexion_sequential", "max_trials")
    assert reflexion[-1]["avg_latency_s"] > reflexion[0]["avg_latency_s"]
    assert reflexion[-1]["accuracy"] >= reflexion[0]["accuracy"]
    marginals = result.diminishing_returns(agent="reflexion")
    assert marginals[-1] <= max(marginals[0], 0.02)

    # Sequential scaling (LATS): larger expansion budgets never reduce accuracy.
    lats_seq = sweep("lats_sequential", "max_expansions")
    assert lats_seq[-1]["accuracy"] >= lats_seq[0]["accuracy"] - 0.05
    assert lats_seq[-1]["avg_latency_s"] >= lats_seq[0]["avg_latency_s"] * 0.8

    # Parallel scaling (LATS children 1 -> 16): accuracy improves while the
    # end-to-end latency does not grow (the paper observes it *drops*).
    parallel = sweep("lats_parallel", "num_children")
    assert parallel[-1]["accuracy"] >= parallel[0]["accuracy"]
    assert parallel[-1]["avg_latency_s"] <= parallel[0]["avg_latency_s"] * 1.1
