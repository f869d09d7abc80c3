"""Regeneration of the paper's tables (I-IV)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.agents import AgentConfig, PAPER_AGENTS, get_agent_class
from repro.analysis.reporting import format_table
from repro.analysis.study_view import StudyView
from repro.api import ArrivalSpec, ExperimentSpec, StudyPoint, StudySpec, run_study
from repro.core import (
    CHATGPT_QUERIES_PER_DAY,
    GOOGLE_QUERIES_PER_DAY,
    PowerProjection,
    project_power,
)
from repro.workloads import AGENTIC_WORKLOADS, create_workload


@dataclass
class PaperTable:
    """A table whose rows are fixed when it is built (Tables I, II and IV)."""

    rows_data: List[Dict[str, object]]
    title: str

    def rows(self) -> List[Dict[str, object]]:
        return self.rows_data

    def format(self) -> str:
        return format_table(self.rows(), self.title)


# ---------------------------------------------------------------------------
# Tables I and II -- agent capabilities and benchmark descriptions (static).
# ---------------------------------------------------------------------------


def table1(agents: Sequence[str] = PAPER_AGENTS) -> PaperTable:
    rows = []
    for name in agents:
        capabilities = get_agent_class(name).capabilities
        row = {"Agent": name}
        row.update(capabilities.as_row())
        rows.append(row)
    return PaperTable(rows, "Table I: comparison of AI agents")


def table2(benchmarks: Sequence[str] = AGENTIC_WORKLOADS) -> PaperTable:
    rows = []
    for name in benchmarks:
        info = create_workload(name).info()
        rows.append(
            {
                "Benchmark": info.name,
                "Task": info.task_description,
                "Tool": info.tools,
                "Agent": ", ".join(info.agents),
            }
        )
    return PaperTable(rows, "Table II: description of benchmarks")


# ---------------------------------------------------------------------------
# Table III -- accuracy, latency, and GPU energy per agent request (HotpotQA).
# ---------------------------------------------------------------------------


class Table3(StudyView):
    """Each model's ShareGPT chat baseline beside agents on HotpotQA."""

    LABELS = (
        ("model", "model"),
        # The baseline point names its workload; agent points run HotpotQA.
        ("workload", lambda point: point.coords.get("workload", point.coords["agent"])),
    )
    METRICS = (
        (
            "accuracy_pct",
            lambda result: (
                "-" if result.spec.workload == "sharegpt" else round(result.accuracy * 100, 1)
            ),
        ),
        ("latency_s", "mean_latency"),
        ("energy_wh_per_query", "energy_wh_per_query"),
    )
    #: The columns relative to the model's ShareGPT baseline, and their metrics.
    RATIOS = (
        ("latency_x_sharegpt", "mean_latency"),
        ("energy_x_sharegpt", "energy_wh_per_query"),
    )

    def row(self, point: StudyPoint) -> Dict[str, object]:
        row = super().row(point)
        baseline = self.result.at(model=point.coords["model"], workload="sharegpt")
        for column, metric in self.RATIOS:
            value, base = point.metric(metric), baseline.metric(metric)
            row[column] = 1.0 if point is baseline else (value / base if base else 0.0)
        return row


#: highest-accuracy configurations used by the paper's Section VI analysis
#: (deep sequential scaling for Reflexion, wide parallel scaling for LATS).
TABLE3_AGENT_CONFIGS: Dict[str, AgentConfig] = {
    "reflexion": AgentConfig(max_iterations=10, max_trials=24, num_few_shot=2),
    "lats": AgentConfig(
        max_iterations=10, max_expansions=24, num_children=12, num_few_shot=2
    ),
}


def table3(
    models: Sequence[str] = ("8b", "70b"),
    num_tasks: int = 6,
    seed: int = 0,
    agent_configs: Optional[Dict[str, AgentConfig]] = None,
) -> Table3:
    """Reproduce Table III: ShareGPT vs Reflexion vs LATS on HotpotQA."""
    agent_configs = agent_configs or TABLE3_AGENT_CONFIGS
    points: List[Dict[str, object]] = []
    for model in models:
        points.append(
            {
                "model": model,
                "workload": "sharegpt",
                "agent": "chatbot",
                "arrival.num_requests": max(num_tasks, 10),
            }
        )
        points.extend(
            {"model": model, "agent": agent, "agent_config": config}
            for agent, config in agent_configs.items()
        )
    base = ExperimentSpec(
        workload="hotpotqa",
        arrival=ArrivalSpec(process="single", num_requests=num_tasks),
        seed=seed,
    )
    return Table3(
        result=run_study(StudySpec(base=base, points=tuple(points), name="per-request-energy")),
        title="Table III: per-request accuracy, latency, energy (HotpotQA)",
    )


# ---------------------------------------------------------------------------
# Table IV -- datacenter-wide power demand.
# ---------------------------------------------------------------------------


class Table4(PaperTable):
    """Datacenter-wide power demand: a projection of Table III's rows."""

    def power_for(self, label: str, queries_per_day: float) -> PowerProjection:
        for row in self.rows_data:
            if row["workload"] == label and row["queries_per_day"] == queries_per_day:
                return PowerProjection(label, row["energy_wh_per_query"], queries_per_day)
        raise KeyError(f"no Table IV projection for {label} at {queries_per_day}")


def table4(
    table3_result: Optional[Table3] = None,
    traffic_levels: Sequence[float] = (CHATGPT_QUERIES_PER_DAY, GOOGLE_QUERIES_PER_DAY),
    **table3_kwargs,
) -> Table4:
    """Translate Table III per-query energy into datacenter power (Table IV)."""
    table3_result = table3_result or table3(**table3_kwargs)
    rows = []
    for row in table3_result.rows():
        for queries_per_day in traffic_levels:
            projection = project_power(
                label=f"{row['workload']}-{row['model']}",
                energy_wh_per_query=row["energy_wh_per_query"],
                queries_per_day=queries_per_day,
            )
            rows.append(
                {
                    "workload": projection.label,
                    "queries_per_day": projection.queries_per_day,
                    "energy_wh_per_query": projection.energy_wh_per_query,
                    "power_mw": projection.power_megawatts,
                    "power_gw": projection.power_gigawatts,
                }
            )
    return Table4(rows, "Table IV: datacenter-wide power demand")
