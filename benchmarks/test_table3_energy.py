"""Table III -- accuracy, latency, and GPU energy per agent request (HotpotQA)."""

from bench_utils import scaled

from repro.analysis import table3


def test_table3_per_request_energy(run_once):
    result = run_once(table3, models=("8b", "70b"), num_tasks=scaled(5), seed=0)
    print()
    print(result.format())

    rows = {(row["model"], row["workload"]): row for row in result.rows()}

    def accuracy(model, agent):
        return result.metric("accuracy", model=model, agent=agent)

    for model in ("8b", "70b"):
        baseline = rows[(model, "sharegpt")]
        # Single-turn inference is cheap: a fraction of a Wh (8B) to a few Wh (70B).
        assert baseline["energy_wh_per_query"] < 5.0
        for agent in ("reflexion", "lats"):
            row = rows[(model, agent)]
            # Agentic test-time scaling costs at least an order of magnitude
            # more latency and energy per query than single-turn inference
            # (paper: 48x-154x latency, 62x-136x energy).
            assert row["latency_x_sharegpt"] > 5.0
            assert row["energy_x_sharegpt"] > 5.0
            assert accuracy(model, agent) is not None

    # The 70B deployment consumes far more energy per query than 8B.
    energy = {key: row["energy_wh_per_query"] for key, row in rows.items()}
    assert energy[("70b", "sharegpt")] > energy[("8b", "sharegpt")]
    assert energy[("70b", "reflexion")] > energy[("8b", "reflexion")]

    # LATS (parallel scaling) reaches higher accuracy than Reflexion
    # (sequential scaling) on HotpotQA for both model sizes.
    for model in ("8b", "70b"):
        assert accuracy(model, "lats") >= accuracy(model, "reflexion")
