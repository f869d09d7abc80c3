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
from repro.analysis.study_view import StudyView
from repro.api import ArrivalSpec, ExperimentSpec, StudySpec, run_study

#: Each agent's scaling knob, the levels it takes, and its base configuration.
SCALING = {
    "reflexion": ("sequential trials", "max_trials", (1, 2, 4, 8), AgentConfig(max_iterations=7)),
    "lats": (
        "parallel children",
        "num_children",
        (1, 4, 8, 16),
        AgentConfig(max_iterations=7, max_expansions=16),
    ),
}


def scaling_level(point) -> str:
    kind, knob, _, _ = SCALING[point.coords["agent"]]
    return f"{kind}={point.coords[f'agent_config.{knob}']}"


class ScalingLevels(StudyView):
    """One row per (model, agent, scaling level)."""

    LABELS = (("model", "model"), ("agent", "agent"), ("scaling", scaling_level))
    METRICS = (
        ("accuracy", "accuracy"),
        ("latency_s", "mean_latency"),
        ("tokens", "mean_total_tokens"),
        ("energy_wh", "energy_wh_per_query"),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=6)
    parser.add_argument("--models", nargs="+", default=["8b", "70b"])
    args = parser.parse_args()

    study = StudySpec(
        base=ExperimentSpec(
            workload="hotpotqa",
            arrival=ArrivalSpec(process="single", num_requests=args.tasks),
            seed=0,
        ),
        points=tuple(
            {"model": model, "agent": agent, "agent_config": config, f"agent_config.{knob}": level}
            for model in args.models
            for agent, (_, knob, levels, config) in SCALING.items()
            for level in levels
        ),
        name="test-time-scaling",
    )
    print(ScalingLevels(result=run_study(study), title="Test-time scaling on HotpotQA").format())
    print()
    print("Expected shapes (as in the paper):")
    print(" * sequential scaling buys accuracy at steeply growing latency/energy,")
    print(" * parallel scaling raises accuracy without inflating latency,")
    print(" * the 8B model with parallel scaling approaches 70B accuracy at far lower energy.")


if __name__ == "__main__":
    main()
