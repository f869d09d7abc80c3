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
from repro.analysis.figures import design_accuracy
from repro.analysis.study_view import DesignSpaceView
from repro.api import ArrivalSpec, ExperimentSpec, StudySpec, run_study
from repro.workloads import create_workload


class AgentDesignSpace(DesignSpaceView):
    """One point per agent: accuracy against mean latency, plus its costs."""

    LABELS = (("agent", "agent"),)
    METRICS = (
        ("accuracy", design_accuracy),
        ("latency_s", "mean_latency"),
        ("p95_s", "p95_latency"),
        ("tokens", "mean_total_tokens"),
        ("energy_wh", "energy_wh_per_query"),
    )
    COST, QUALITY = "latency_s", "accuracy"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="hotpotqa", help="hotpotqa | webshop | math | humaneval")
    parser.add_argument("--tasks", type=int, default=10, help="tasks per agent")
    parser.add_argument("--model", default="8b", help="8b | 70b")
    args = parser.parse_args()

    workload = create_workload(args.benchmark)
    study = StudySpec(
        base=ExperimentSpec(
            workload=args.benchmark,
            model=args.model,
            agent_config=default_config(args.benchmark),
            arrival=ArrivalSpec(process="single", num_requests=args.tasks),
            seed=0,
        ),
        points=tuple({"agent": agent} for agent in PAPER_AGENTS if workload.supports_agent(agent)),
        name="agent-design-space",
    )
    view = AgentDesignSpace(
        result=run_study(study), title=f"Agent design space on {args.benchmark} ({args.model})"
    )

    frontier = set(view.frontier_labels("agent"))
    rows = [
        {**row, "efficiency_norm": norm, "pareto": "*" if row["agent"] in frontier else ""}
        for row, norm in zip(view.rows(), view.normalized_efficiency())
    ]
    print(format_table(sorted(rows, key=lambda row: row["latency_s"]), view.title))
    print("\n'*' marks the accuracy/latency Pareto frontier.")
    print("As in the paper, accuracy rises with compute but with rapidly diminishing returns.")


if __name__ == "__main__":
    main()
