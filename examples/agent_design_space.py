"""Compare agent workflows on accuracy vs cost (a miniature of paper Fig. 13).

Evaluates CoT, ReAct, Reflexion, LATS, and LLMCompiler on the HotpotQA
benchmark and prints the accuracy/latency/energy trade-off, the Pareto
frontier, and the cost-efficiency ranking.

Run with::

    python examples/agent_design_space.py [--benchmark hotpotqa] [--tasks 10]
"""

from __future__ import annotations

import argparse

from repro.agents import PAPER_AGENTS
from repro.analysis import default_config, format_table
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment
from repro.core import DesignPoint, normalized_efficiency, pareto_frontier
from repro.workloads import create_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="hotpotqa", help="hotpotqa | webshop | math | humaneval")
    parser.add_argument("--tasks", type=int, default=10, help="tasks per agent")
    parser.add_argument("--model", default="8b", help="8b | 70b")
    args = parser.parse_args()

    workload = create_workload(args.benchmark)

    points: list[DesignPoint] = []
    for agent in PAPER_AGENTS:
        if not workload.supports_agent(agent):
            continue
        spec = ExperimentSpec(
            agent=agent,
            workload=args.benchmark,
            model=args.model,
            agent_config=default_config(args.benchmark),
            arrival=ArrivalSpec(process="single", num_requests=args.tasks),
            seed=0,
        )
        result = run_experiment(spec)
        points.append(
            DesignPoint(
                label=agent,
                agent=agent,
                benchmark=args.benchmark,
                accuracy=result.mean_score if args.benchmark == "webshop" else result.accuracy,
                latency_s=result.mean_latency,
                total_tokens=result.mean_total_tokens,
                energy_wh=result.energy_wh_per_query,
                p95_latency_s=result.latency_stats.p95,
            )
        )

    efficiency = normalized_efficiency(points)
    frontier = pareto_frontier(
        points,
        cost=lambda point: point.latency_s,
        quality=lambda point: point.accuracy,
        minimize_quality=False,
    )
    frontier_labels = {point.label for point in frontier}
    rows = [
        {
            "agent": point.agent,
            "accuracy": point.accuracy,
            "latency_s": point.latency_s,
            "p95_s": point.p95_latency_s,
            "tokens": point.total_tokens,
            "energy_wh": point.energy_wh,
            "efficiency_norm": efficiency[point.label],
            "pareto": "*" if point.label in frontier_labels else "",
        }
        for point in sorted(points, key=lambda p: p.latency_s)
    ]
    print(format_table(rows, f"Agent design space on {args.benchmark} ({args.model})"))
    print("\n'*' marks the accuracy/latency Pareto frontier.")
    print("As in the paper, accuracy rises with compute but with rapidly diminishing returns.")


if __name__ == "__main__":
    main()
