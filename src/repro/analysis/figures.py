"""Regeneration of every figure in the paper's evaluation (Figs. 4-9, 11-17).

Each ``figureN`` function declares the figure's experiments as a
:class:`~repro.api.StudySpec`, runs it with :func:`~repro.api.run_study`,
and returns a view (:mod:`repro.analysis.study_view`) whose ``rows()``
yield the rows/series the paper plots and whose methods are the figure's
headline reads.  Figs. 4, 5, 6 and 8 read one characterization study
(:func:`characterization_study`); pass it as ``study=`` to draw all four
from one set of runs.  Sample counts default to small values so the full
suite runs in minutes; pass larger ``num_tasks`` / ``num_requests`` for
tighter estimates (the paper uses 50 tasks per design point).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.agents import AgentConfig, PAPER_AGENTS
from repro.analysis.study_view import DesignSpaceView, StudyView, accuracy_per_second
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    ResultSet,
    StudyPoint,
    StudyResult,
    StudySpec,
    run_study,
)
from repro.core import mean
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


def _characterize(
    points: Sequence[Dict[str, object]],
    num_tasks: int,
    model: str,
    seed: int,
    name: str,
    **fields: object,
) -> StudyResult:
    """Run each point on ``num_tasks`` requests sent one at a time (a ``qps``
    coordinate switches a point to open-loop Poisson arrivals)."""
    base = ExperimentSpec(
        model=model,
        arrival=ArrivalSpec(process="single", num_requests=num_tasks),
        seed=seed,
        **fields,
    )
    return run_study(StudySpec(base=base, points=tuple(points), name=name))


# ---------------------------------------------------------------------------
# Figs. 4-9 -- single-request characterization.  Figs. 4, 5, 6 and 8 read
# one characterization study; Fig. 9 runs it with prefix caching on and off.
# ---------------------------------------------------------------------------


def _characterization_points(
    benchmarks: Sequence[str], agents: Sequence[str]
) -> List[Dict[str, object]]:
    """Each benchmark's supported agents, in ``agents`` order, at the
    benchmark's default configuration; benchmarks in sorted order."""
    points: List[Dict[str, object]] = []
    for benchmark in sorted(benchmarks):
        workload = create_workload(benchmark)
        points.extend(
            {"workload": benchmark, "agent": agent, "agent_config": default_config(benchmark)}
            for agent in agents
            if workload.supports_agent(agent)
        )
    return points


def characterization_study(
    benchmarks: Sequence[str] = AGENTIC_WORKLOADS,
    agents: Sequence[str] = PAPER_AGENTS,
    num_tasks: int = 8,
    model: str = "8b",
    seed: int = 0,
    enable_prefix_caching: bool = True,
) -> StudyResult:
    """Run every supported (agent, benchmark) pair one request at a time,
    in the (benchmark, agent) order the figures print."""
    points = _characterization_points(benchmarks, sorted(agents))
    return _characterize(
        points, num_tasks, model, seed, "characterization",
        enable_prefix_caching=enable_prefix_caching,
    )


def _given_or_run(study: Optional[StudyResult], kwargs: Dict) -> StudyResult:
    """``study``, or a characterization study run with ``kwargs``."""
    return characterization_study(**kwargs) if study is None else study


#: The label columns of the figures drawn per (benchmark, agent) pair.
_PAIR = (("benchmark", "workload"), ("agent", "agent"))


def _fraction(breakdown: str, part: str) -> Callable[[ResultSet], float]:
    """The ``part`` share of a result's latency or GPU ``breakdown``."""
    return lambda result: getattr(result, breakdown)().fractions[part]


class Figure4(StudyView):
    """Fig. 4: LLM and tool invocations per request."""

    LABELS = _PAIR
    METRICS = (
        ("llm_invocations", "mean_llm_calls"),
        ("tool_invocations", "mean_tool_calls"),
    )

    def llm_call_ratio_vs_cot(self, benchmark: str) -> Dict[str, float]:
        """How many more LLM calls each agent makes than CoT on a benchmark."""
        calls = {
            point.coords["agent"]: point.outcome.mean_llm_calls
            for point in self.result.slice(workload=benchmark).points
        }
        cot = calls.pop("cot", 0.0)
        if cot == 0:
            return {}
        return {agent: value / cot for agent, value in calls.items()}


def figure4(study: Optional[StudyResult] = None, **kwargs) -> Figure4:
    return Figure4(_given_or_run(study, kwargs), "Figure 4: LLM and tool invocations per request")


_LATENCY_PARTS = ("llm", "tool", "overlap", "other")


class Figure5(StudyView):
    """Fig. 5: latency breakdown and end-to-end latency."""

    LABELS = _PAIR
    METRICS = tuple(
        (f"{part}_frac", _fraction("latency_breakdown", part)) for part in _LATENCY_PARTS
    ) + (("e2e_latency_s", "mean_latency"),)

    def average_fractions(self) -> Dict[str, float]:
        rows = self.rows()
        return {part: mean([row[f"{part}_frac"] for row in rows]) for part in _LATENCY_PARTS}


def figure5(study: Optional[StudyResult] = None, **kwargs) -> Figure5:
    return Figure5(_given_or_run(study, kwargs), "Figure 5: latency breakdown per agent")


class Figure6(StudyView):
    """Fig. 6: GPU runtime breakdown and utilization."""

    LABELS = _PAIR
    METRICS = tuple(
        (f"{part}_frac", _fraction("gpu_breakdown", part))
        for part in ("prefill", "decode", "idle")
    ) + (("gpu_utilization", lambda result: result.gpu_breakdown().utilization),)


def figure6(study: Optional[StudyResult] = None, **kwargs) -> Figure6:
    return Figure6(
        _given_or_run(study, kwargs), "Figure 6: GPU runtime breakdown and utilization"
    )


class Figure7(StudyView):
    """Fig. 7: end-to-end latency distribution (chatbot vs ReAct agents)."""

    LABELS = (
        ("workload", lambda point: f"{point.coords['workload']}_{point.coords['agent']}"),
    )
    METRICS = (
        ("mean_s", "mean_latency"),
        ("p50_s", lambda result: result.latency_stats.p50),
        ("p95_s", "p95_latency"),
        ("max_s", lambda result: result.latency_stats.maximum),
    )

    def histogram(self, label: str, bin_width: float = 2.0) -> Dict[float, int]:
        """Request counts per ``bin_width``-second latency bin of one workload."""
        workload, _, agent = label.partition("_")
        counts: Dict[float, int] = {}
        for value in self.result.at(workload=workload, agent=agent).outcome.latencies:
            bucket = round(value // bin_width * bin_width, 6)
            counts[bucket] = counts.get(bucket, 0) + 1
        return dict(sorted(counts.items()))


def figure7(
    num_tasks: int = 30,
    model: str = "8b",
    seed: int = 0,
) -> Figure7:
    points = [{"workload": "sharegpt", "agent": "chatbot"}] + _characterization_points(
        ("hotpotqa", "webshop"), ("react",)
    )
    return Figure7(
        _characterize(points, num_tasks, model, seed, "latency-distribution"),
        "Figure 7: end-to-end latency distribution",
    )


_TOKEN_PARTS = (
    "instruction", "few_shot", "user", "llm_history", "tool_history", "output", "input_total"
)


class Figure8(StudyView):
    """Fig. 8: token breakdown of LLM inference."""

    LABELS = _PAIR
    METRICS = tuple(
        (part, lambda result, part=part: getattr(result.token_breakdown(), part))
        for part in _TOKEN_PARTS
    )


def figure8(study: Optional[StudyResult] = None, **kwargs) -> Figure8:
    return Figure8(_given_or_run(study, kwargs), "Figure 8: input/output token breakdown")


class Figure9(StudyView):
    """Fig. 9: effect of prefix caching on LLM inference latency, from the
    characterization study run with prefix caching on and off."""

    LABELS = _PAIR
    #: Column stems of the metrics each row prints without and with caching.
    COMPARED = (
        ("prefill_s", "mean_prefill_time"),
        ("decode_s", "mean_decode_time"),
        ("inference_s", "mean_llm_inference_latency"),
    )

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for cached in self.result.slice(enable_prefix_caching=True).points:
            uncached = self.result.at(
                workload=cached.coords["workload"],
                agent=cached.coords["agent"],
                enable_prefix_caching=False,
            )
            row = self.row(cached)
            for stem, metric in self.COMPARED:
                row[f"{stem}_no_cache"] = uncached.metric(metric)
                row[f"{stem}_cache"] = cached.metric(metric)
            without, with_cache = row["prefill_s_no_cache"], row["prefill_s_cache"]
            row["prefill_reduction"] = 1.0 - with_cache / without if without > 0 else 0.0
            rows.append(row)
        return rows

    def mean_prefill_reduction(self, exclude_cot: bool = True) -> float:
        values = [
            row["prefill_reduction"]
            for row in self.rows()
            if not (exclude_cot and row["agent"] == "cot")
        ]
        return mean(values)


def figure9(
    benchmarks: Sequence[str] = AGENTIC_WORKLOADS,
    agents: Sequence[str] = PAPER_AGENTS,
    num_tasks: int = 6,
    model: str = "8b",
    seed: int = 0,
) -> Figure9:
    points = [
        {**point, "enable_prefix_caching": caching}
        for point in _characterization_points(benchmarks, sorted(agents))
        for caching in (True, False)
    ]
    return Figure9(
        _characterize(points, num_tasks, model, seed, "prefix-caching"),
        "Figure 9: prefix caching effect on inference latency",
    )


# ---------------------------------------------------------------------------
# Figs. 11-12 -- serving under load, with and without prefix caching.
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


class Figure11(StudyView):
    """Fig. 11: tail latency vs offered QPS, one load curve per (workload,
    prefix caching) pair."""

    LABELS = (("workload", "workload"), ("prefix_caching", "enable_prefix_caching"))
    METRICS = (
        ("offered_qps", lambda result: result.serving.offered_qps),
        ("p95_latency_s", "p95_latency"),
        ("throughput_qps", "throughput_qps"),
    )

    @property
    def curves(self) -> Dict[Tuple[str, bool], StudyResult]:
        """Each (workload, caching) pair's load curve, in declared order."""
        curves: Dict[Tuple[str, bool], StudyResult] = {}
        for point in self.result.points:
            key = (point.coords["workload"], point.coords["enable_prefix_caching"])
            curves.setdefault(key, StudyResult(study=self.result.study)).points.append(point)
        return curves

    def outcomes(self, key: Tuple[str, bool]) -> List[ResultSet]:
        """The outcomes of one curve, one per load point in grid order."""
        return [point.outcome for point in self.curves[key].points]

    def rows(self) -> List[Dict[str, object]]:
        # By (workload, caching); the stable sort keeps each curve's load order.
        return sorted(super().rows(), key=lambda row: (row["workload"], row["prefix_caching"]))

    def peak_throughputs(self) -> Dict[Tuple[str, bool], float]:
        return {key: peak_throughput(self.outcomes(key)) for key in self.curves}

    def caching_speedup(self, label: str) -> float:
        peaks = self.peak_throughputs()
        without = peaks.get((label, False), 0.0)
        with_cache = peaks.get((label, True), 0.0)
        if without <= 0:
            return 0.0
        return with_cache / without


def figure11(
    qps_grid: Optional[Dict[str, Sequence[float]]] = None,
    num_requests: int = 40,
    model: str = "8b",
    seed: int = 0,
    include_no_caching: bool = True,
    replicas: int = 1,
    router: str = "round-robin",
) -> Figure11:
    qps_grid = qps_grid or {
        "sharegpt": (1.0, 2.0, 4.0, 6.0, 8.0),
        "hotpotqa": (0.25, 0.5, 1.0, 2.0, 3.0),
        "webshop": (0.25, 0.5, 1.0, 1.5, 2.0),
    }
    points = [
        {
            "workload": benchmark,
            "agent": "chatbot" if benchmark == "sharegpt" else "react",
            "agent_config": AgentConfig() if benchmark == "sharegpt" else default_config(benchmark),
            "enable_prefix_caching": caching,
            "qps": qps,
        }
        for benchmark in ("sharegpt", "hotpotqa", "webshop")
        for caching in ((True, False) if include_no_caching else (True,))
        for qps in qps_grid[benchmark]
    ]
    return Figure11(
        _characterize(
            points, num_requests, model, seed, "qps-sweep", replicas=replicas, router=router
        ),
        "Figure 11: p95 latency vs QPS",
    )


#: A serving result's KV-cache footprint in bytes, by the name ``reduction`` takes.
_KV_BYTES: Dict[str, Callable[[ResultSet], float]] = {
    "avg_bytes": lambda result: result.serving.kv_average_bytes,
    "max_bytes": lambda result: result.serving.kv_max_bytes,
}


class Figure12(StudyView):
    """Fig. 12: KV-cache memory with and without prefix caching."""

    LABELS = (("benchmark", "workload"), ("prefix_caching", "enable_prefix_caching"))
    METRICS = (
        ("avg_kv_gb", lambda result: result.serving.kv_average_bytes / 1e9),
        ("max_kv_gb", lambda result: result.serving.kv_max_bytes / 1e9),
    )

    def reduction(self, benchmark: str, which: str = "avg_bytes") -> float:
        """The share of the ``which`` footprint prefix caching saves."""
        without, with_cache = (
            self.metric(_KV_BYTES[which], workload=benchmark, enable_prefix_caching=caching)
            for caching in (False, True)
        )
        if without <= 0:
            return 0.0
        return 1.0 - with_cache / without


def figure12(
    num_requests: int = 30,
    model: str = "8b",
    seed: int = 0,
) -> Figure12:
    scenarios = {"hotpotqa": 0.2, "webshop": 0.1}
    points = [
        {**point, "enable_prefix_caching": caching, "qps": scenarios[point["workload"]]}
        for point in _characterization_points(scenarios, ("react",))
        for caching in (False, True)
    ]
    return Figure12(
        _characterize(points, num_requests, model, seed, "kv-memory"),
        "Figure 12: KV cache memory usage",
    )


# ---------------------------------------------------------------------------
# Figs. 13-17 -- the accuracy/latency design space.
# ---------------------------------------------------------------------------


def design_accuracy(result: ResultSet) -> float:
    """The accuracy Figs. 13-17 plot: the mean score on WebShop, else accuracy."""
    return result.mean_score if result.spec.workload == "webshop" else result.accuracy


def _swept(point: StudyPoint) -> Dict[str, object]:
    """The agent-config fields a point sets on top of its ``agent_config``."""
    return {
        path.partition(".")[2]: value
        for path, value in point.coords.items()
        if path.startswith("agent_config.")
    }


def _sweep(
    agent: str, benchmark: str, parameter: str, values: Sequence[int], **base: int
) -> List[Dict[str, object]]:
    """``agent``'s points along ``agent_config.<parameter>`` on ``benchmark``."""
    config = default_config(benchmark, **base)
    return [
        {"workload": benchmark, "agent": agent, "agent_config": config,
         f"agent_config.{parameter}": value}
        for value in values
    ]


#: Fig. 13's design variants: overrides of the benchmark's default config.
DESIGN_VARIANTS: Dict[str, Tuple[Dict[str, int], ...]] = {
    "react": ({"max_iterations": 4}, {}, {"max_iterations": 15}),
    "reflexion": ({"max_trials": 2}, {}, {"max_trials": 6}),
    "lats": ({"num_children": 3, "max_expansions": 5}, {}, {"num_children": 8}),
    "llmcompiler": ({"replan_rounds": 2}, {}),
}


def _variant(point: StudyPoint) -> str:
    """A Fig. 13 label: the agent and the index of its variant (``react-v1``)."""
    agent = point.coords["agent"]
    return f"{agent}-v{DESIGN_VARIANTS[agent].index(_swept(point))}"


class Figure13(DesignSpaceView):
    """Fig. 13: accuracy vs latency Pareto across the agent design space."""

    LABELS = _PAIR + (("label", _variant),)
    METRICS = (("accuracy", design_accuracy), ("latency_s", "mean_latency"))
    COST, QUALITY = "latency_s", "accuracy"

    def rows(self) -> List[Dict[str, object]]:
        return [
            {**row, "efficiency_norm": norm}
            for benchmark in self.result.axis_values("workload")
            for row, norm in zip(
                self._rows(workload=benchmark),
                self.normalized_efficiency(workload=benchmark),
            )
        ]


def figure13(
    benchmarks: Sequence[str] = AGENTIC_WORKLOADS,
    num_tasks: int = 8,
    model: str = "8b",
    seed: int = 0,
) -> Figure13:
    """Evaluate a small design-space sweep per agent and benchmark."""
    points = [
        {**point, **{f"agent_config.{name}": value for name, value in overrides.items()}}
        for point in _characterization_points(benchmarks, DESIGN_VARIANTS)
        for overrides in DESIGN_VARIANTS[point["agent"]]
    ]
    return Figure13(
        _characterize(points, num_tasks, model, seed, "design-space"),
        "Figure 13: accuracy/latency design space",
    )


class ParameterSweep(DesignSpaceView):
    """Figs. 14-15: one agent-config field swept per agent and benchmark."""

    LABELS = _PAIR + tuple(
        (name, f"agent_config.{name}")
        for name in ("max_iterations", "num_few_shot", "max_trials", "max_expansions", "num_children")
    )
    METRICS = (
        ("accuracy", design_accuracy),
        ("avg_latency_s", "mean_latency"),
        ("p95_latency_s", "p95_latency"),
        (
            "efficiency",
            lambda result: accuracy_per_second(design_accuracy(result), result.mean_latency),
        ),
    )
    COST, QUALITY = "avg_latency_s", "accuracy"


def figure14(
    budgets: Optional[Dict[str, Sequence[int]]] = None,
    num_tasks: int = 10,
    model: str = "8b",
    seed: int = 0,
) -> ParameterSweep:
    budgets = budgets or {
        "hotpotqa": (3, 4, 5, 10, 15, 20, 25),
        "webshop": (5, 10, 15, 20, 25, 30),
    }
    points = [
        point
        for benchmark, values in budgets.items()
        for point in _sweep("react", benchmark, "max_iterations", values)
    ]
    return ParameterSweep(
        _characterize(points, num_tasks, model, seed, "iteration-budget"),
        "Figure 14: iteration budget sweep (ReAct)",
    )


def figure15(
    counts: Sequence[int] = (0, 1, 2, 3, 4, 5),
    benchmarks: Sequence[str] = ("hotpotqa", "webshop"),
    num_tasks: int = 10,
    model: str = "8b",
    seed: int = 0,
) -> ParameterSweep:
    points = [
        point
        for benchmark in benchmarks
        for point in _sweep("react", benchmark, "num_few_shot", counts)
    ]
    return ParameterSweep(
        _characterize(points, num_tasks, model, seed, "few-shot"),
        "Figure 15: few-shot example sweep (ReAct)",
    )


class Figure16(ParameterSweep):
    """Fig. 16: sequential (Reflexion trials, LATS expansions) vs parallel
    (LATS children) test-time scaling."""

    def row(self, point: StudyPoint) -> Dict[str, object]:
        kind = "parallel" if "agent_config.num_children" in point.coords else "sequential"
        return {**super().row(point), "scaling": f"{point.coords['agent']}_{kind}"}


def figure16(
    reflexion_trials: Sequence[int] = (2, 4, 8, 16),
    lats_expansions: Sequence[int] = (4, 8, 16, 32),
    lats_children: Sequence[int] = (1, 2, 4, 8, 16),
    num_tasks: int = 8,
    model: str = "8b",
    seed: int = 0,
) -> Figure16:
    points = (
        _sweep("reflexion", "hotpotqa", "max_trials", reflexion_trials)
        + _sweep("lats", "hotpotqa", "max_expansions", lats_expansions)
        + _sweep("lats", "hotpotqa", "num_children", lats_children, max_expansions=16)
    )
    return Figure16(
        _characterize(points, num_tasks, model, seed, "test-time-scaling"),
        "Figure 16: sequential vs parallel scaling (HotpotQA)",
    )


class Figure17(DesignSpaceView):
    """Fig. 17: model-size effects on test-time scaling."""

    LABELS = (
        ("agent", "agent"),
        ("model", "model"),
        ("scaling_level", lambda point: next(iter(_swept(point).values()))),
    )
    METRICS = (
        ("accuracy", design_accuracy),
        ("latency_s", "mean_latency"),
        ("total_tokens", "mean_total_tokens"),
        ("energy_wh", "energy_wh_per_query"),
    )
    COST, QUALITY = "latency_s", "accuracy"


def figure17(
    reflexion_trials: Sequence[int] = (1, 2, 4, 8),
    lats_expansions: Sequence[int] = (2, 4, 8, 16),
    models: Sequence[str] = ("8b", "70b"),
    num_tasks: int = 6,
    seed: int = 0,
) -> Figure17:
    sweeps = {"reflexion": ("max_trials", reflexion_trials), "lats": ("max_expansions", lats_expansions)}
    points = [
        {"model": model, **point}
        for agent, model in sorted((agent, model) for agent in sweeps for model in models)
        for point in _sweep(agent, "hotpotqa", *sweeps[agent])
    ]
    return Figure17(
        _characterize(points, num_tasks, "8b", seed, "model-size"),
        "Figure 17: model size effects (HotpotQA)",
    )
