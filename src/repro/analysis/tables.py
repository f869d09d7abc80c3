"""Regeneration of the paper's tables (I-IV)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.agents import AgentConfig, PAPER_AGENTS, get_agent_class
from repro.analysis.reporting import format_table
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment
from repro.core import (
    CHATGPT_QUERIES_PER_DAY,
    GOOGLE_QUERIES_PER_DAY,
    PowerProjection,
    project_power,
)
from repro.workloads import AGENTIC_WORKLOADS, create_workload


# ---------------------------------------------------------------------------
# Table I -- agent capability comparison (static).
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    rows_data: List[Dict[str, str]]

    def rows(self) -> List[Dict[str, str]]:
        return self.rows_data

    def format(self) -> str:
        return format_table(self.rows(), "Table I: comparison of AI agents")


def table1(agents: Sequence[str] = PAPER_AGENTS) -> Table1Result:
    rows = []
    for name in agents:
        capabilities = get_agent_class(name).capabilities
        row = {"Agent": name}
        row.update(capabilities.as_row())
        rows.append(row)
    return Table1Result(rows_data=rows)


# ---------------------------------------------------------------------------
# Table II -- benchmark descriptions (static).
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    rows_data: List[Dict[str, str]]

    def rows(self) -> List[Dict[str, str]]:
        return self.rows_data

    def format(self) -> str:
        return format_table(self.rows(), "Table II: description of benchmarks")


def table2(benchmarks: Sequence[str] = AGENTIC_WORKLOADS) -> Table2Result:
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
    return Table2Result(rows_data=rows)


# ---------------------------------------------------------------------------
# Table III -- accuracy, latency, and GPU energy per agent request (HotpotQA).
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    model: str
    workload: str
    accuracy: Optional[float]
    latency_s: float
    energy_wh: float
    latency_vs_sharegpt: float
    energy_vs_sharegpt: float


@dataclass
class Table3Result:
    rows_data: List[Table3Row] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for row in self.rows_data:
            rows.append(
                {
                    "model": row.model,
                    "workload": row.workload,
                    "accuracy_pct": "-" if row.accuracy is None else round(row.accuracy * 100, 1),
                    "latency_s": row.latency_s,
                    "energy_wh_per_query": row.energy_wh,
                    "latency_x_sharegpt": row.latency_vs_sharegpt,
                    "energy_x_sharegpt": row.energy_vs_sharegpt,
                }
            )
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Table III: per-request accuracy, latency, energy (HotpotQA)")


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
) -> Table3Result:
    """Reproduce Table III: ShareGPT vs Reflexion vs LATS on HotpotQA."""
    agent_configs = agent_configs or TABLE3_AGENT_CONFIGS
    result = Table3Result()
    for model in models:
        base = ExperimentSpec(
            model=model,
            arrival=ArrivalSpec(process="single", num_requests=num_tasks),
            seed=seed,
        )
        baseline = run_experiment(
            base.with_overrides(
                agent="chatbot",
                workload="sharegpt",
                arrival=ArrivalSpec(process="single", num_requests=max(num_tasks, 10)),
            )
        )
        base_latency = baseline.mean_latency
        base_energy = baseline.energy_wh_per_query
        result.rows_data.append(
            Table3Row(
                model=model,
                workload="sharegpt",
                accuracy=None,
                latency_s=base_latency,
                energy_wh=base_energy,
                latency_vs_sharegpt=1.0,
                energy_vs_sharegpt=1.0,
            )
        )
        for agent, config in agent_configs.items():
            run = run_experiment(
                base.with_overrides(agent=agent, workload="hotpotqa", agent_config=config)
            )
            energy = run.energy_wh_per_query
            result.rows_data.append(
                Table3Row(
                    model=model,
                    workload=agent,
                    accuracy=run.accuracy,
                    latency_s=run.mean_latency,
                    energy_wh=energy,
                    latency_vs_sharegpt=(run.mean_latency / base_latency) if base_latency else 0.0,
                    energy_vs_sharegpt=(energy / base_energy) if base_energy else 0.0,
                )
            )
    return Table3Result(rows_data=result.rows_data)


# ---------------------------------------------------------------------------
# Table IV -- datacenter-wide power demand.
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    projections: List[PowerProjection] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for projection in self.projections:
            rows.append(
                {
                    "workload": projection.label,
                    "queries_per_day": projection.queries_per_day,
                    "energy_wh_per_query": projection.energy_wh_per_query,
                    "power_mw": projection.power_megawatts,
                    "power_gw": projection.power_gigawatts,
                }
            )
        return rows

    def power_for(self, label: str, queries_per_day: float) -> PowerProjection:
        for projection in self.projections:
            if projection.label == label and projection.queries_per_day == queries_per_day:
                return projection
        raise KeyError(f"no Table IV projection for {label} at {queries_per_day}")

    def format(self) -> str:
        return format_table(self.rows(), "Table IV: datacenter-wide power demand")


def table4(
    table3_result: Optional[Table3Result] = None,
    traffic_levels: Sequence[float] = (CHATGPT_QUERIES_PER_DAY, GOOGLE_QUERIES_PER_DAY),
    **table3_kwargs,
) -> Table4Result:
    """Translate Table III per-query energy into datacenter power (Table IV)."""
    table3_result = table3_result or table3(**table3_kwargs)
    projections: List[PowerProjection] = []
    for row in table3_result.rows_data:
        for queries_per_day in traffic_levels:
            projections.append(
                project_power(
                    label=f"{row.workload}-{row.model}",
                    energy_wh_per_query=row.energy_wh,
                    queries_per_day=queries_per_day,
                )
            )
    return Table4Result(projections=projections)
