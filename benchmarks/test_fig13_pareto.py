"""Figure 13 -- accuracy vs latency Pareto analysis across agent design points."""

from bench_utils import scaled

from repro.analysis import figure13


def test_fig13_accuracy_cost_design_space(run_once):
    result = run_once(figure13, num_tasks=scaled(6), seed=0)
    print()
    print(result.format())

    rows = result.rows()
    for benchmark in ("hotpotqa", "webshop", "math", "humaneval"):
        points = [row for row in rows if row["benchmark"] == benchmark]
        by_agent = {}
        for point in points:
            by_agent.setdefault(point["agent"], []).append(point)

        # ReAct is the cheap/efficient end of the design space; LATS the
        # accurate/expensive end (paper Fig. 13a).
        react_latency = min(p["latency_s"] for p in by_agent["react"])
        lats_latency = max(p["latency_s"] for p in by_agent["lats"])
        assert lats_latency > react_latency
        best_lats_accuracy = max(p["accuracy"] for p in by_agent["lats"])
        best_react_accuracy = max(p["accuracy"] for p in by_agent["react"])
        assert best_lats_accuracy >= best_react_accuracy - 0.05

        # Cost-efficiency: the most efficient configuration is never the most
        # expensive one -- returns diminish as compute increases.
        efficient = result.best_efficiency(workload=benchmark)
        assert efficient["latency_s"] < max(p["latency_s"] for p in points)

        frontier = result.frontier(workload=benchmark)
        assert 1 <= len(frontier) <= len(points)

    # LLMCompiler beats ReAct on HotpotQA cost-efficiency but loses on WebShop
    # (paper: DAG planning misfires on interdependent web navigation).
    hotpot = {p["agent"]: p for p in rows if p["benchmark"] == "hotpotqa" and p["label"].endswith("v1")}
    webshop = {p["agent"]: p for p in rows if p["benchmark"] == "webshop" and p["label"].endswith("v1")}
    assert result.efficiency(hotpot["llmcompiler"]) >= 0.5 * result.efficiency(hotpot["react"])
    assert webshop["llmcompiler"]["accuracy"] <= webshop["react"]["accuracy"] + 0.05
