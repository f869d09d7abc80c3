"""Figure 17 -- model-size effects on test-time scaling (8B vs 70B)."""

from bench_utils import scaled

from repro.analysis import figure17


def test_fig17_model_size_effects(run_once):
    result = run_once(
        figure17,
        reflexion_trials=(1, 2, 4, 8),
        lats_expansions=(2, 4, 8),
        models=("8b", "70b"),
        num_tasks=scaled(5),
        seed=0,
    )
    print()
    print(result.format())

    def sweep(agent, model):
        return [row for row in result.rows() if (row["agent"], row["model"]) == (agent, model)]

    def best(agent, model, metric):
        return max(row[metric] for row in sweep(agent, model))

    def best_accuracy(agent, model):
        return max(row["accuracy"] for row in sweep(agent, model))

    # The 70B model reaches higher accuracy than 8B for the sequential-scaling
    # agent (Reflexion), and at least matches it for LATS.
    assert best_accuracy("reflexion", "70b") >= best_accuracy("reflexion", "8b")
    assert best_accuracy("lats", "70b") >= best_accuracy("lats", "8b") - 0.05

    # Parallel scaling lets the small model approach the large model's
    # accuracy (the paper's compensation finding): the LATS gap is small.
    lats_gap = best_accuracy("lats", "70b") - best_accuracy("lats", "8b")
    reflexion_gap = best_accuracy("reflexion", "70b") - best_accuracy("reflexion", "8b")
    assert lats_gap <= reflexion_gap + 0.05

    # The 8B deployment is far cheaper in energy per request at comparable
    # scaling levels (1 GPU vs 8 GPUs).
    for agent in ("reflexion", "lats"):
        energy_8b = max(row["energy_wh"] for row in sweep(agent, "8b"))
        energy_70b = max(row["energy_wh"] for row in sweep(agent, "70b"))
        assert energy_70b > energy_8b

    # Token usage grows with deeper scaling for both model sizes.
    for agent in ("reflexion", "lats"):
        for model in ("8b", "70b"):
            ordered = sorted(sweep(agent, model), key=lambda row: row["scaling_level"])
            assert ordered[-1]["total_tokens"] >= ordered[0]["total_tokens"] * 0.8
