"""Figure 13 -- accuracy vs latency Pareto analysis across agent design points."""

from bench_utils import scaled

from repro.analysis import figure13
from repro.core import best_efficiency_point, diminishing_returns, pareto_frontier


def test_fig13_accuracy_cost_design_space(run_once):
    result = run_once(figure13, num_tasks=scaled(6), seed=0)
    print()
    print(result.format())

    for benchmark, points in result.points.items():
        by_agent = {}
        for point in points:
            by_agent.setdefault(point.agent, []).append(point)

        # ReAct is the cheap/efficient end of the design space; LATS the
        # accurate/expensive end (paper Fig. 13a).
        react_latency = min(p.latency_s for p in by_agent["react"])
        lats_latency = max(p.latency_s for p in by_agent["lats"])
        assert lats_latency > react_latency
        best_lats_accuracy = max(p.accuracy for p in by_agent["lats"])
        best_react_accuracy = max(p.accuracy for p in by_agent["react"])
        assert best_lats_accuracy >= best_react_accuracy - 0.05

        # Cost-efficiency: the most efficient configuration is never the most
        # expensive one -- returns diminish as compute increases.
        efficient = best_efficiency_point(points)
        assert efficient.latency_s < max(p.latency_s for p in points)

        frontier = pareto_frontier(
            points,
            cost=lambda p: p.latency_s,
            quality=lambda p: p.accuracy,
            minimize_quality=False,
        )
        assert 1 <= len(frontier) <= len(points)

    # LLMCompiler beats ReAct on HotpotQA cost-efficiency but loses on WebShop
    # (paper: DAG planning misfires on interdependent web navigation).
    hotpot = {p.agent: p for p in result.points["hotpotqa"] if p.label.endswith("v1")}
    webshop = {p.agent: p for p in result.points["webshop"] if p.label.endswith("v1")}
    assert hotpot["llmcompiler"].cost_efficiency >= 0.5 * hotpot["react"].cost_efficiency
    assert webshop["llmcompiler"].accuracy <= webshop["react"].accuracy + 0.05
