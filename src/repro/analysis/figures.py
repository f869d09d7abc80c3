"""Regeneration of every figure in the paper's evaluation (Figs. 4-9, 11-17).

Each ``figureN`` function configures the corresponding experiment, runs it on
the serving simulator, and returns a result object whose ``rows()`` method
yields the same rows/series the paper plots.  Sample counts default to small
values so the full suite runs in minutes; pass larger ``num_tasks`` /
``num_requests`` for tighter estimates (the paper uses 50 tasks per design
point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents import AgentConfig, PAPER_AGENTS
from repro.analysis.reporting import format_table
from repro.analysis.study_view import chat_agent_mixture, chat_agent_pools
from repro.api import (
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    ResultSet,
    StudyAxis,
    StudyResult,
    StudySpec,
    run_experiment,
    run_study,
)
from repro.core import (
    DesignPoint,
    best_accuracy_point,
    best_efficiency_point,
    mean,
    percentile,
)
from repro.workloads import AGENTIC_WORKLOADS, create_workload

#: default design-space defaults per benchmark (iteration budget the paper uses).
DEFAULT_MAX_ITERATIONS = {
    "hotpotqa": 7,
    "webshop": 12,
    "math": 8,
    "humaneval": 5,
}


def default_config(benchmark: str, **overrides) -> AgentConfig:
    """The paper's default agent configuration for a benchmark."""
    base = AgentConfig(
        max_iterations=DEFAULT_MAX_ITERATIONS.get(benchmark, 8),
        num_few_shot=2,
        max_trials=3,
        num_children=5,
        max_expansions=12,
    )
    return base.with_overrides(**overrides) if overrides else base


# ---------------------------------------------------------------------------
# Shared characterization matrix (Figs. 4, 5, 6, 8, 9 reuse these runs).
# ---------------------------------------------------------------------------


@dataclass
class CharacterizationMatrix:
    """Single-request characterization of every (agent, benchmark) pair."""

    results: Dict[Tuple[str, str], ResultSet] = field(default_factory=dict)

    def get(self, agent: str, benchmark: str) -> Optional[ResultSet]:
        return self.results.get((agent, benchmark))

    def pairs(self) -> List[Tuple[str, str]]:
        return sorted(self.results, key=lambda pair: (pair[1], pair[0]))


def characterization_matrix(
    benchmarks: Sequence[str] = AGENTIC_WORKLOADS,
    agents: Sequence[str] = PAPER_AGENTS,
    num_tasks: int = 8,
    model: str = "8b",
    seed: int = 0,
    enable_prefix_caching: bool = True,
) -> CharacterizationMatrix:
    """Run every supported (agent, benchmark) pair one request at a time."""
    matrix = CharacterizationMatrix()
    base = ExperimentSpec(
        model=model,
        enable_prefix_caching=enable_prefix_caching,
        arrival=ArrivalSpec(process="single", num_requests=num_tasks),
        seed=seed,
    )
    for benchmark in benchmarks:
        workload = create_workload(benchmark, seed=seed)
        for agent in agents:
            if not workload.supports_agent(agent):
                continue
            spec = base.with_overrides(
                agent=agent, workload=benchmark, agent_config=default_config(benchmark)
            )
            matrix.results[(agent, benchmark)] = run_experiment(spec)
    return matrix


# ---------------------------------------------------------------------------
# Figure 4 -- LLM and tool invocations per request.
# ---------------------------------------------------------------------------


@dataclass
class Figure4Result:
    matrix: CharacterizationMatrix

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for agent, benchmark in self.matrix.pairs():
            result = self.matrix.get(agent, benchmark)
            rows.append(
                {
                    "benchmark": benchmark,
                    "agent": agent,
                    "llm_invocations": result.mean_llm_calls,
                    "tool_invocations": result.mean_tool_calls,
                }
            )
        return rows

    def llm_call_ratio_vs_cot(self, benchmark: str) -> Dict[str, float]:
        """How many more LLM calls each agent makes than CoT on a benchmark."""
        cot = self.matrix.get("cot", benchmark)
        if cot is None or cot.mean_llm_calls == 0:
            return {}
        ratios = {}
        for agent, bench in self.matrix.pairs():
            if bench != benchmark or agent == "cot":
                continue
            ratios[agent] = self.matrix.get(agent, bench).mean_llm_calls / cot.mean_llm_calls
        return ratios

    def format(self) -> str:
        return format_table(self.rows(), "Figure 4: LLM and tool invocations per request")


def figure4(matrix: Optional[CharacterizationMatrix] = None, **kwargs) -> Figure4Result:
    return Figure4Result(matrix=matrix or characterization_matrix(**kwargs))


# ---------------------------------------------------------------------------
# Figure 5 -- latency breakdown and end-to-end latency.
# ---------------------------------------------------------------------------


@dataclass
class Figure5Result:
    matrix: CharacterizationMatrix

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for agent, benchmark in self.matrix.pairs():
            result = self.matrix.get(agent, benchmark)
            breakdown = result.latency_breakdown()
            fractions = breakdown.fractions
            rows.append(
                {
                    "benchmark": benchmark,
                    "agent": agent,
                    "llm_frac": fractions["llm"],
                    "tool_frac": fractions["tool"],
                    "overlap_frac": fractions["overlap"],
                    "other_frac": fractions["other"],
                    "e2e_latency_s": result.mean_latency,
                }
            )
        return rows

    def average_fractions(self) -> Dict[str, float]:
        rows = self.rows()
        return {
            "llm": mean([row["llm_frac"] for row in rows]),
            "tool": mean([row["tool_frac"] for row in rows]),
            "overlap": mean([row["overlap_frac"] for row in rows]),
            "other": mean([row["other_frac"] for row in rows]),
        }

    def format(self) -> str:
        return format_table(self.rows(), "Figure 5: latency breakdown per agent")


def figure5(matrix: Optional[CharacterizationMatrix] = None, **kwargs) -> Figure5Result:
    return Figure5Result(matrix=matrix or characterization_matrix(**kwargs))


# ---------------------------------------------------------------------------
# Figure 6 -- GPU runtime breakdown and utilization.
# ---------------------------------------------------------------------------


@dataclass
class Figure6Result:
    matrix: CharacterizationMatrix

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for agent, benchmark in self.matrix.pairs():
            result = self.matrix.get(agent, benchmark)
            gpu = result.gpu_breakdown()
            fractions = gpu.fractions
            rows.append(
                {
                    "benchmark": benchmark,
                    "agent": agent,
                    "prefill_frac": fractions["prefill"],
                    "decode_frac": fractions["decode"],
                    "idle_frac": fractions["idle"],
                    "gpu_utilization": gpu.utilization,
                }
            )
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 6: GPU runtime breakdown and utilization")


def figure6(matrix: Optional[CharacterizationMatrix] = None, **kwargs) -> Figure6Result:
    return Figure6Result(matrix=matrix or characterization_matrix(**kwargs))


# ---------------------------------------------------------------------------
# Figure 7 -- end-to-end latency distribution (chatbot vs ReAct agents).
# ---------------------------------------------------------------------------


@dataclass
class Figure7Result:
    distributions: Dict[str, List[float]]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for label, latencies in self.distributions.items():
            rows.append(
                {
                    "workload": label,
                    "mean_s": mean(latencies),
                    "p50_s": percentile(latencies, 50),
                    "p95_s": percentile(latencies, 95),
                    "max_s": max(latencies) if latencies else 0.0,
                }
            )
        return rows

    def histogram(self, label: str, bin_width: float = 2.0) -> Dict[float, int]:
        counts: Dict[float, int] = {}
        for value in self.distributions.get(label, []):
            bucket = round(value // bin_width * bin_width, 6)
            counts[bucket] = counts.get(bucket, 0) + 1
        return dict(sorted(counts.items()))

    def format(self) -> str:
        return format_table(self.rows(), "Figure 7: end-to-end latency distribution")


def figure7(
    num_tasks: int = 30,
    model: str = "8b",
    seed: int = 0,
) -> Figure7Result:
    base = ExperimentSpec(
        model=model,
        arrival=ArrivalSpec(process="single", num_requests=num_tasks),
        seed=seed,
    )
    specs = {
        "sharegpt_chatbot": base.with_overrides(agent="chatbot", workload="sharegpt"),
        "hotpotqa_react": base.with_overrides(
            agent="react", workload="hotpotqa", agent_config=default_config("hotpotqa")
        ),
        "webshop_react": base.with_overrides(
            agent="react", workload="webshop", agent_config=default_config("webshop")
        ),
    }
    return Figure7Result(
        distributions={label: run_experiment(spec).latencies for label, spec in specs.items()}
    )


# ---------------------------------------------------------------------------
# Figure 8 -- token breakdown of LLM inference.
# ---------------------------------------------------------------------------


@dataclass
class Figure8Result:
    matrix: CharacterizationMatrix

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for agent, benchmark in self.matrix.pairs():
            result = self.matrix.get(agent, benchmark)
            tokens = result.token_breakdown()
            row = {"benchmark": benchmark, "agent": agent}
            row.update(tokens.as_dict())
            row["input_total"] = tokens.input_total
            rows.append(row)
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 8: input/output token breakdown")


def figure8(matrix: Optional[CharacterizationMatrix] = None, **kwargs) -> Figure8Result:
    return Figure8Result(matrix=matrix or characterization_matrix(**kwargs))


# ---------------------------------------------------------------------------
# Figure 9 -- effect of prefix caching on LLM inference latency.
# ---------------------------------------------------------------------------


@dataclass
class Figure9Result:
    with_caching: CharacterizationMatrix
    without_caching: CharacterizationMatrix

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for agent, benchmark in self.with_caching.pairs():
            cached = self.with_caching.get(agent, benchmark)
            uncached = self.without_caching.get(agent, benchmark)
            if uncached is None:
                continue
            prefill_reduction = 0.0
            if uncached.mean_prefill_time > 0:
                prefill_reduction = 1.0 - cached.mean_prefill_time / uncached.mean_prefill_time
            rows.append(
                {
                    "benchmark": benchmark,
                    "agent": agent,
                    "prefill_s_no_cache": uncached.mean_prefill_time,
                    "prefill_s_cache": cached.mean_prefill_time,
                    "decode_s_no_cache": uncached.mean_decode_time,
                    "decode_s_cache": cached.mean_decode_time,
                    "inference_s_no_cache": uncached.mean_llm_inference_latency,
                    "inference_s_cache": cached.mean_llm_inference_latency,
                    "prefill_reduction": prefill_reduction,
                }
            )
        return rows

    def mean_prefill_reduction(self, exclude_cot: bool = True) -> float:
        values = [
            row["prefill_reduction"]
            for row in self.rows()
            if not (exclude_cot and row["agent"] == "cot")
        ]
        return mean(values)

    def format(self) -> str:
        return format_table(self.rows(), "Figure 9: prefix caching effect on inference latency")


def figure9(
    benchmarks: Sequence[str] = AGENTIC_WORKLOADS,
    agents: Sequence[str] = PAPER_AGENTS,
    num_tasks: int = 6,
    model: str = "8b",
    seed: int = 0,
) -> Figure9Result:
    with_caching = characterization_matrix(
        benchmarks, agents, num_tasks=num_tasks, model=model, seed=seed, enable_prefix_caching=True
    )
    without_caching = characterization_matrix(
        benchmarks, agents, num_tasks=num_tasks, model=model, seed=seed, enable_prefix_caching=False
    )
    return Figure9Result(with_caching=with_caching, without_caching=without_caching)


# ---------------------------------------------------------------------------
# Figure 11 -- tail latency vs offered QPS, with and without prefix caching.
# ---------------------------------------------------------------------------


#: Lowest-load p95 latencies at or below this carry no saturation signal (a
#: degenerate baseline would otherwise collapse the knee threshold to zero
#: and report no sustainable throughput on healthy runs).
_BASELINE_EPSILON = 1e-9


def peak_throughput(
    outcomes: Sequence[ResultSet],
    latency_slo_s: Optional[float] = None,
    knee_factor: float = 3.0,
) -> float:
    """Maximum sustainable QPS at the knee of a load sweep's tail-latency curve.

    ``outcomes`` are the results of a ``qps`` study, one per load point,
    in any order.  The knee is the largest offered QPS whose p95
    latency stays below ``knee_factor`` times the lowest-load p95 (or below
    an absolute SLO if one is given) with at least 95% of its requests
    completed.  This mirrors how the paper reads peak throughput off its
    Fig. 11 curves.

    A zero (or numerically negligible) lowest-load p95 carries no signal
    about saturation, so the baseline falls back to the smallest positive
    p95 in the sweep; if every point is at zero latency the threshold is
    unbounded and any sufficiently completed point counts.
    """
    if not outcomes:
        return 0.0
    ordered = sorted(outcomes, key=lambda result: result.serving.offered_qps)
    if latency_slo_s is not None:
        threshold = latency_slo_s
    else:
        baseline = ordered[0].p95_latency
        if baseline <= _BASELINE_EPSILON:
            positive = [
                result.p95_latency
                for result in ordered
                if result.p95_latency > _BASELINE_EPSILON
            ]
            baseline = min(positive) if positive else float("inf")
        threshold = baseline * knee_factor
    peak = 0.0
    for result in ordered:
        if result.p95_latency <= threshold and result.num_completed >= result.num_requests * 0.95:
            peak = max(peak, result.throughput_qps)
    return peak


@dataclass
class Figure11Result:
    curves: Dict[Tuple[str, bool], StudyResult]  # (workload label, caching) -> qps study

    def outcomes(self, key: Tuple[str, bool]) -> List[ResultSet]:
        """The outcomes of one curve, one per load point in grid order."""
        return [point.outcome for point in self.curves[key].points]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for label, caching in sorted(self.curves):
            for result in self.outcomes((label, caching)):
                rows.append(
                    {
                        "workload": label,
                        "prefix_caching": caching,
                        "offered_qps": result.serving.offered_qps,
                        "p95_latency_s": result.p95_latency,
                        "throughput_qps": result.throughput_qps,
                    }
                )
        return rows

    def peak_throughputs(self) -> Dict[Tuple[str, bool], float]:
        return {key: peak_throughput(self.outcomes(key)) for key in self.curves}

    def caching_speedup(self, label: str) -> float:
        peaks = self.peak_throughputs()
        without = peaks.get((label, False), 0.0)
        with_cache = peaks.get((label, True), 0.0)
        if without <= 0:
            return 0.0
        return with_cache / without

    def format(self) -> str:
        return format_table(self.rows(), "Figure 11: p95 latency vs QPS")


def figure11(
    qps_grid: Optional[Dict[str, Sequence[float]]] = None,
    num_requests: int = 40,
    model: str = "8b",
    seed: int = 0,
    include_no_caching: bool = True,
    replicas: int = 1,
    router: str = "round-robin",
) -> Figure11Result:
    workload_specs = {
        "sharegpt": ("chatbot", "sharegpt"),
        "hotpotqa": ("react", "hotpotqa"),
        "webshop": ("react", "webshop"),
    }
    qps_grid = qps_grid or {
        "sharegpt": (1.0, 2.0, 4.0, 6.0, 8.0),
        "hotpotqa": (0.25, 0.5, 1.0, 2.0, 3.0),
        "webshop": (0.25, 0.5, 1.0, 1.5, 2.0),
    }
    caching_options = (True, False) if include_no_caching else (True,)
    curves = {}
    for label, (agent, benchmark) in workload_specs.items():
        for caching in caching_options:
            spec = ExperimentSpec(
                agent=agent,
                workload=benchmark,
                model=model,
                replicas=replicas,
                router=router,
                enable_prefix_caching=caching,
                agent_config=default_config(benchmark) if benchmark != "sharegpt" else AgentConfig(),
                arrival=ArrivalSpec(process="single", num_requests=num_requests),
                seed=seed,
            )
            study = StudySpec(
                base=spec, axes=(StudyAxis(name="qps", values=tuple(qps_grid[label])),)
            )
            curves[(label, caching)] = run_study(study)
    return Figure11Result(curves=curves)


# ---------------------------------------------------------------------------
# Figure 12 -- KV-cache memory with and without prefix caching.
# ---------------------------------------------------------------------------


@dataclass
class Figure12Result:
    measurements: Dict[Tuple[str, bool], Dict[str, float]]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for (benchmark, caching), stats in sorted(self.measurements.items()):
            rows.append(
                {
                    "benchmark": benchmark,
                    "prefix_caching": caching,
                    "avg_kv_gb": stats["avg_bytes"] / 1e9,
                    "max_kv_gb": stats["max_bytes"] / 1e9,
                }
            )
        return rows

    def reduction(self, benchmark: str, which: str = "avg_bytes") -> float:
        without = self.measurements.get((benchmark, False), {}).get(which, 0.0)
        with_cache = self.measurements.get((benchmark, True), {}).get(which, 0.0)
        if without <= 0:
            return 0.0
        return 1.0 - with_cache / without

    def format(self) -> str:
        return format_table(self.rows(), "Figure 12: KV cache memory usage")


def figure12(
    num_requests: int = 30,
    model: str = "8b",
    seed: int = 0,
) -> Figure12Result:
    scenarios = {"hotpotqa": 0.2, "webshop": 0.1}
    measurements = {}
    for benchmark, qps in scenarios.items():
        for caching in (True, False):
            spec = ExperimentSpec(
                agent="react",
                workload=benchmark,
                model=model,
                enable_prefix_caching=caching,
                agent_config=default_config(benchmark),
                arrival=ArrivalSpec(process="poisson", qps=qps, num_requests=num_requests),
                seed=seed,
            )
            result = run_experiment(spec).serving
            measurements[(benchmark, caching)] = {
                "avg_bytes": result.kv_average_bytes,
                "max_bytes": result.kv_max_bytes,
            }
    return Figure12Result(measurements=measurements)


# ---------------------------------------------------------------------------
# Figure 13 -- accuracy vs latency Pareto across the agent design space.
# ---------------------------------------------------------------------------


@dataclass
class Figure13Result:
    points: Dict[str, List[DesignPoint]]  # benchmark -> design points

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for benchmark, points in sorted(self.points.items()):
            best = max((p.cost_efficiency for p in points), default=0.0)
            for point in points:
                rows.append(
                    {
                        "benchmark": benchmark,
                        "agent": point.agent,
                        "label": point.label,
                        "accuracy": point.accuracy,
                        "latency_s": point.latency_s,
                        "efficiency_norm": (point.cost_efficiency / best) if best > 0 else 0.0,
                    }
                )
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 13: accuracy/latency design space")


def figure13(
    benchmarks: Sequence[str] = AGENTIC_WORKLOADS,
    num_tasks: int = 8,
    model: str = "8b",
    seed: int = 0,
) -> Figure13Result:
    """Evaluate a small design-space sweep per agent and benchmark."""
    variant_grid = {
        "react": [{"max_iterations": 4}, {}, {"max_iterations": 15}],
        "reflexion": [{"max_trials": 2}, {}, {"max_trials": 6}],
        "lats": [{"num_children": 3, "max_expansions": 5}, {}, {"num_children": 8}],
        "llmcompiler": [{"replan_rounds": 2}, {}],
    }
    base = ExperimentSpec(
        model=model,
        arrival=ArrivalSpec(process="single", num_requests=num_tasks),
        seed=seed,
    )
    points: Dict[str, List[DesignPoint]] = {}
    for benchmark in benchmarks:
        workload = create_workload(benchmark, seed=seed)
        bench_points: List[DesignPoint] = []
        for agent, variants in variant_grid.items():
            if not workload.supports_agent(agent):
                continue
            for index, overrides in enumerate(variants):
                spec = base.with_overrides(
                    agent=agent,
                    workload=benchmark,
                    agent_config=default_config(benchmark, **overrides),
                )
                result = run_experiment(spec)
                bench_points.append(
                    DesignPoint(
                        label=f"{agent}-v{index}",
                        agent=agent,
                        benchmark=benchmark,
                        accuracy=result.mean_score if benchmark == "webshop" else result.accuracy,
                        latency_s=result.mean_latency,
                        config=dict(overrides),
                        total_tokens=result.mean_total_tokens,
                        energy_wh=result.energy_wh_per_query,
                        p95_latency_s=result.latency_stats.p95,
                    )
                )
        points[benchmark] = bench_points
    return Figure13Result(points=points)


# ---------------------------------------------------------------------------
# Figure 14 -- iteration-budget sweep (ReAct).
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Shared result shape for the Fig. 14/15/16 parameter sweeps."""

    parameter: str
    benchmark: str
    agent: str
    points: List[DesignPoint]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for point in self.points:
            rows.append(
                {
                    "benchmark": self.benchmark,
                    "agent": self.agent,
                    self.parameter: point.config.get(self.parameter),
                    "accuracy": point.accuracy,
                    "avg_latency_s": point.latency_s,
                    "p95_latency_s": point.p95_latency_s,
                    "efficiency": point.cost_efficiency,
                }
            )
        return rows

    def best_accuracy(self) -> Optional[DesignPoint]:
        return best_accuracy_point(self.points)

    def best_efficiency(self) -> Optional[DesignPoint]:
        return best_efficiency_point(self.points)

    def format(self) -> str:
        return format_table(self.rows(), f"{self.agent} {self.parameter} sweep on {self.benchmark}")


def _parameter_sweep(
    agent: str,
    benchmark: str,
    parameter: str,
    values: Sequence[int],
    num_tasks: int,
    model: str,
    seed: int,
    base_overrides: Optional[Dict[str, int]] = None,
) -> SweepResult:
    points: List[DesignPoint] = []
    for value in values:
        overrides = dict(base_overrides or {})
        overrides[parameter] = value
        config = default_config(benchmark, **overrides)
        spec = ExperimentSpec(
            agent=agent,
            workload=benchmark,
            model=model,
            enable_prefix_caching=True,
            agent_config=config,
            arrival=ArrivalSpec(process="single", num_requests=num_tasks),
            seed=seed,
        )
        result = run_experiment(spec)
        points.append(
            DesignPoint(
                label=f"{agent}-{parameter}={value}",
                agent=agent,
                benchmark=benchmark,
                accuracy=result.mean_score if benchmark == "webshop" else result.accuracy,
                latency_s=result.mean_latency,
                config={parameter: value},
                total_tokens=result.mean_total_tokens,
                energy_wh=result.energy_wh_per_query,
                p95_latency_s=result.latency_stats.p95,
            )
        )
    return SweepResult(parameter=parameter, benchmark=benchmark, agent=agent, points=points)


@dataclass
class Figure14Result:
    sweeps: Dict[str, SweepResult]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for sweep in self.sweeps.values():
            rows.extend(sweep.rows())
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 14: iteration budget sweep (ReAct)")


def figure14(
    budgets: Optional[Dict[str, Sequence[int]]] = None,
    num_tasks: int = 10,
    model: str = "8b",
    seed: int = 0,
) -> Figure14Result:
    budgets = budgets or {
        "hotpotqa": (3, 4, 5, 10, 15, 20, 25),
        "webshop": (5, 10, 15, 20, 25, 30),
    }
    sweeps = {
        benchmark: _parameter_sweep(
            "react", benchmark, "max_iterations", values, num_tasks, model, seed
        )
        for benchmark, values in budgets.items()
    }
    return Figure14Result(sweeps=sweeps)


# ---------------------------------------------------------------------------
# Figure 15 -- few-shot prompting sweep (ReAct).
# ---------------------------------------------------------------------------


@dataclass
class Figure15Result:
    sweeps: Dict[str, SweepResult]

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for sweep in self.sweeps.values():
            rows.extend(sweep.rows())
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 15: few-shot example sweep (ReAct)")


def figure15(
    counts: Sequence[int] = (0, 1, 2, 3, 4, 5),
    benchmarks: Sequence[str] = ("hotpotqa", "webshop"),
    num_tasks: int = 10,
    model: str = "8b",
    seed: int = 0,
) -> Figure15Result:
    sweeps = {
        benchmark: _parameter_sweep(
            "react", benchmark, "num_few_shot", counts, num_tasks, model, seed
        )
        for benchmark in benchmarks
    }
    return Figure15Result(sweeps=sweeps)


# ---------------------------------------------------------------------------
# Figure 16 -- sequential vs parallel test-time scaling.
# ---------------------------------------------------------------------------


@dataclass
class Figure16Result:
    reflexion_sequential: SweepResult
    lats_sequential: SweepResult
    lats_parallel: SweepResult

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for label, sweep in (
            ("reflexion_sequential", self.reflexion_sequential),
            ("lats_sequential", self.lats_sequential),
            ("lats_parallel", self.lats_parallel),
        ):
            for row in sweep.rows():
                row = dict(row)
                row["scaling"] = label
                rows.append(row)
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 16: sequential vs parallel scaling (HotpotQA)")


def figure16(
    reflexion_trials: Sequence[int] = (2, 4, 8, 16),
    lats_expansions: Sequence[int] = (4, 8, 16, 32),
    lats_children: Sequence[int] = (1, 2, 4, 8, 16),
    num_tasks: int = 8,
    model: str = "8b",
    seed: int = 0,
) -> Figure16Result:
    benchmark = "hotpotqa"
    reflexion_sequential = _parameter_sweep(
        "reflexion", benchmark, "max_trials", reflexion_trials, num_tasks, model, seed
    )
    lats_sequential = _parameter_sweep(
        "lats", benchmark, "max_expansions", lats_expansions, num_tasks, model, seed
    )
    lats_parallel = _parameter_sweep(
        "lats",
        benchmark,
        "num_children",
        lats_children,
        num_tasks,
        model,
        seed,
        base_overrides={"max_expansions": 16},
    )
    return Figure16Result(
        reflexion_sequential=reflexion_sequential,
        lats_sequential=lats_sequential,
        lats_parallel=lats_parallel,
    )


# ---------------------------------------------------------------------------
# Figure 17 -- model-size effects on test-time scaling.
# ---------------------------------------------------------------------------


@dataclass
class Figure17Result:
    sweeps: Dict[Tuple[str, str], SweepResult]  # (agent, model) -> sweep

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for (agent, model), sweep in sorted(self.sweeps.items()):
            for point in sweep.points:
                rows.append(
                    {
                        "agent": agent,
                        "model": model,
                        "scaling_level": point.config.get(sweep.parameter),
                        "accuracy": point.accuracy,
                        "latency_s": point.latency_s,
                        "total_tokens": point.total_tokens,
                        "energy_wh": point.energy_wh,
                    }
                )
        return rows

    def format(self) -> str:
        return format_table(self.rows(), "Figure 17: model size effects (HotpotQA)")


def figure17(
    reflexion_trials: Sequence[int] = (1, 2, 4, 8),
    lats_expansions: Sequence[int] = (2, 4, 8, 16),
    models: Sequence[str] = ("8b", "70b"),
    num_tasks: int = 6,
    seed: int = 0,
) -> Figure17Result:
    benchmark = "hotpotqa"
    sweeps: Dict[Tuple[str, str], SweepResult] = {}
    for model in models:
        sweeps[("reflexion", model)] = _parameter_sweep(
            "reflexion", benchmark, "max_trials", reflexion_trials, num_tasks, model, seed
        )
        sweeps[("lats", model)] = _parameter_sweep(
            "lats", benchmark, "max_expansions", lats_expansions, num_tasks, model, seed
        )
    return Figure17Result(sweeps=sweeps)


# ---------------------------------------------------------------------------
# Mixed-traffic fleet study (the paper's Table IV datacenter scenario,
# extended with heterogeneous pools and autoscaling).
# ---------------------------------------------------------------------------


@dataclass
class MixedFleetResult:
    """Per-pool and per-class view of one mixed-traffic fleet experiment."""

    outcome: object  # ResultSet

    def pool_rows(self) -> List[Dict[str, object]]:
        return self.outcome.per_pool_summary()

    def class_rows(self) -> List[Dict[str, object]]:
        return self.outcome.per_class_summary()

    def rows(self) -> List[Dict[str, object]]:
        return self.pool_rows() + self.class_rows()

    @property
    def replica_seconds(self) -> float:
        return self.outcome.replica_seconds

    @property
    def scaling_events(self) -> List[object]:
        return self.outcome.serving.scaling_events

    def format(self) -> str:
        parts = [
            format_table(self.pool_rows(), "Mixed fleet: per-pool metrics"),
            format_table(self.class_rows(), "Mixed fleet: per-traffic-class metrics"),
            (
                f"replica-seconds: {self.replica_seconds:.1f}  "
                f"scaling events: {len(self.scaling_events)}"
            ),
        ]
        return "\n\n".join(parts)


def mixed_fleet(
    qps: float = 2.0,
    num_requests: int = 24,
    chat_weight: float = 0.6,
    agent_weight: float = 0.4,
    chat_replicas: int = 1,
    agent_replicas: int = 2,
    autoscale: bool = True,
    max_chat_replicas: int = 3,
    predictor_error: float = 0.0,
    seed: int = 0,
) -> MixedFleetResult:
    """Serve a chatbot + agent traffic mixture on a two-pool fleet.

    The chatbot pool handles short interactive requests (optionally
    autoscaled between 1 and ``max_chat_replicas`` replicas); the agent pool
    runs SJF scheduling with prefix-affinity routing for the long multi-call
    ReAct traffic.  Returns per-pool throughput/p95/energy/replica-seconds
    and per-class latency/accuracy -- the datacenter-scale view of Table IV.
    """
    autoscaler = None
    if autoscale:
        autoscaler = AutoscalerSpec(
            pool="chat",
            min_replicas=1,
            max_replicas=max_chat_replicas,
            check_interval_s=1.0,
            warmup_s=2.0,
            scale_up_pending_per_replica=2.0,
            scale_down_pending_per_replica=0.5,
        )
    spec = ExperimentSpec(
        pools=chat_agent_pools(chat_replicas, agent_replicas),
        workloads=chat_agent_mixture(chat_weight, agent_weight),
        autoscaler=autoscaler,
        arrival=ArrivalSpec(
            process="poisson", qps=qps, num_requests=num_requests, task_pool_size=12
        ),
        agent_config=AgentConfig(max_iterations=5),
        predictor_error=predictor_error,
        seed=seed,
    )
    return MixedFleetResult(outcome=run_experiment(spec))
