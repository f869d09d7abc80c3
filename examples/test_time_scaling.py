"""Sequential vs parallel test-time scaling (miniature of Figs. 16-17).

Scales Reflexion sequentially (more reflection trials) and LATS in parallel
(more children per tree expansion) on HotpotQA, for both backend model sizes,
and prints the accuracy-latency-energy trade-off of each scaling level.

Run with::

    python examples/test_time_scaling.py [--tasks 6] [--models 8b 70b]
"""

from __future__ import annotations

import argparse

from repro.agents import AgentConfig
from repro.analysis import format_table
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=6)
    parser.add_argument("--models", nargs="+", default=["8b", "70b"])
    args = parser.parse_args()

    def characterize(agent: str, config: AgentConfig, model: str):
        spec = ExperimentSpec(
            agent=agent,
            workload="hotpotqa",
            model=model,
            agent_config=config,
            arrival=ArrivalSpec(process="single", num_requests=args.tasks),
            seed=0,
        )
        return run_experiment(spec)

    rows = []
    for model in args.models:
        for trials in (1, 2, 4, 8):
            config = AgentConfig(max_iterations=7, max_trials=trials)
            result = characterize("reflexion", config, model)
            rows.append(
                {
                    "model": model,
                    "agent": "reflexion",
                    "scaling": f"sequential trials={trials}",
                    "accuracy": result.accuracy,
                    "latency_s": result.mean_latency,
                    "tokens": result.mean_total_tokens,
                    "energy_wh": result.energy_wh_per_query,
                }
            )

        for children in (1, 4, 8, 16):
            config = AgentConfig(max_iterations=7, num_children=children, max_expansions=16)
            result = characterize("lats", config, model)
            rows.append(
                {
                    "model": model,
                    "agent": "lats",
                    "scaling": f"parallel children={children}",
                    "accuracy": result.accuracy,
                    "latency_s": result.mean_latency,
                    "tokens": result.mean_total_tokens,
                    "energy_wh": result.energy_wh_per_query,
                }
            )

    print(format_table(rows, "Test-time scaling on HotpotQA"))
    print()
    print("Expected shapes (as in the paper):")
    print(" * sequential scaling buys accuracy at steeply growing latency/energy,")
    print(" * parallel scaling raises accuracy without inflating latency,")
    print(" * the 8B model with parallel scaling approaches 70B accuracy at far lower energy.")


if __name__ == "__main__":
    main()
