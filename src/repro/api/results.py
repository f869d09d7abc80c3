"""The one metric vocabulary, over characterization and serving records.

An experiment produces one of two records --
:class:`~repro.core.runner.CharacterizationResult` (single-request
characterization: one observation per request) or
:class:`~repro.serving.server.ServingResult` (open-loop serving: the
completed agent runs plus fleet, door and engine telemetry).  The records
hold only what a run measured.  :class:`ResultSet` wraps whichever one an
experiment produced and is the only place a metric is defined: request
counts, latency distribution, accuracy, per-request calls and tokens,
throughput, energy, cost, admission, fairness and sessions.  Each metric
is declared once, with its unit and scope, in :data:`METRICS`; it is
computed from the records over the measured agent runs
(:attr:`ResultSet.runs`) of either kind, a traffic class's metrics are the
same metrics over that class's runs (:attr:`ResultSet.classes`), and
:func:`resolve_metric` names them for studies, tables and Pareto queries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.agents import AgentRunResult
from repro.api.spec import ExperimentSpec
from repro.core.metrics import (
    GpuRuntimeBreakdown,
    LatencyBreakdown,
    LatencyStats,
    TokenBreakdown,
    mean,
    percentile,
)
from repro.core.runner import CharacterizationResult
from repro.serving.server import ServingResult

#: Every scalar metric of :class:`ResultSet`: name -> (unit, scope).  A
#: ``run`` metric is computed from :attr:`ResultSet.runs` and the measured
#: window, a ``door`` metric from the door accounting, and a ``fleet``
#: metric from whole-run telemetry that no traffic class owns a share of.
METRICS: Dict[str, Tuple[str, str]] = {}


def _declare(unit: str, scope: str) -> Callable[[Callable[..., Any]], property]:
    """Declare a :class:`ResultSet` property as a metric in :data:`METRICS`.

    Reading a ``fleet`` metric on a traffic-class slice raises ``ValueError``.
    """

    def declare(fget: Callable[..., Any]) -> property:
        METRICS[fget.__name__] = (unit, scope)
        if scope != "fleet":
            return property(fget)

        @functools.wraps(fget)
        def whole_run_only(self: "ResultSet") -> Any:
            if self.traffic_class is not None:
                raise ValueError(
                    f"metric {fget.__name__!r} is fleet-wide; traffic class "
                    f"{self.traffic_class!r} owns no share of it"
                )
            return fget(self)

        return property(whole_run_only)

    return declare


def _computed_once(method: Callable[["ResultSet"], Any]) -> Callable[["ResultSet"], Any]:
    """Compute a :class:`ResultSet` method once per result: the records it
    reads are final, and tables read one breakdown once per column."""

    @functools.wraps(method)
    def once(self: "ResultSet") -> Any:
        computed = self._computed
        if method.__name__ not in computed:
            computed[method.__name__] = method(self)
        return computed[method.__name__]

    return once


@dataclass
class ResultSet:
    """Outcome of one :func:`~repro.api.run_experiment` call.

    With ``traffic_class`` set it is one class's slice (see :attr:`classes`).
    """

    spec: ExperimentSpec
    characterization: Optional[CharacterizationResult] = None
    serving: Optional[ServingResult] = None
    traffic_class: Optional[str] = None
    # Values of the _computed_once methods; a class slice starts its own.
    _computed: Dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if (self.characterization is None) == (self.serving is None):
            raise ValueError(
                "ResultSet wraps exactly one of characterization or serving"
            )

    # -- shape ----------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"characterization"`` or ``"serving"``, per the wrapped result."""
        return "characterization" if self.characterization is not None else "serving"

    @property
    def runs(self) -> List[AgentRunResult]:
        """The measured agent runs, in completion order (one per request or turn).

        On a class slice, only that class's runs.
        """
        if self.characterization is not None:
            runs = [obs.result for obs in self.characterization.observations]
        else:
            runs = self.serving.results
        if self.traffic_class is None:
            return runs
        return [
            run for run in runs if run.metadata.get("traffic_class") == self.traffic_class
        ]

    @property
    def classes(self) -> Dict[str, "ResultSet"]:
        """One slice per traffic class: its runs and its door row.

        Classes come in the order of their first measured completion, then
        the door's labelled rows no run completed (a class whose every
        request was shed keeps its 100% rejection rate).  Empty for a flat
        spec, whose one class is unlabelled.
        """
        labels = dict.fromkeys(run.metadata.get("traffic_class") for run in self.runs)
        labels.update(dict.fromkeys(label for label in self.admission_stats if label))
        labels.pop(None, None)
        return {label: replace(self, traffic_class=label) for label in labels}

    # -- unified metrics -------------------------------------------------------
    @_declare("requests", "fleet")
    def num_requests(self) -> int:
        """Requests in the measured window (sessionful runs count turns)."""
        if self.characterization is not None:
            return len(self.characterization.observations)
        return self.serving.num_requests

    @_declare("requests", "run")
    def num_completed(self) -> int:
        """Requests that ran to completion inside the measured window."""
        return len(self.runs)

    @property
    def latencies(self) -> List[float]:
        """Per-request end-to-end latencies (seconds), in completion order."""
        return [run.e2e_latency for run in self.runs]

    @property
    def latency_stats(self) -> LatencyStats:
        """Percentile summary (p50/p95/p99/mean) of :attr:`latencies`."""
        return LatencyStats.from_values(self.latencies)

    @_declare("s", "run")
    def mean_latency(self) -> float:
        """Mean end-to-end request latency (seconds)."""
        return mean(self.latencies)

    @_declare("s", "run")
    def p95_latency(self) -> float:
        """95th-percentile end-to-end request latency (seconds)."""
        return self.latency_stats.p95

    @_declare("fraction", "run")
    def accuracy(self) -> float:
        """Task accuracy over completed requests (oracle-graded)."""
        return mean([1.0 if run.answer_correct else 0.0 for run in self.runs])

    # -- per-request agent work (paper Figs. 4, 8, 9, 13-17) ---------------------
    @_declare("score", "run")
    def mean_score(self) -> float:
        """Mean graded task score (partial credit; WebShop's accuracy metric)."""
        return mean([run.score for run in self.runs])

    @_declare("calls/request", "run")
    def mean_llm_calls(self) -> float:
        """Mean LLM invocations per request."""
        return mean([run.num_llm_calls for run in self.runs])

    @_declare("calls/request", "run")
    def mean_tool_calls(self) -> float:
        """Mean tool invocations per request."""
        return mean([run.num_tool_calls for run in self.runs])

    @_declare("tokens/request", "run")
    def mean_total_tokens(self) -> float:
        """Mean prompt + output tokens per request, summed over its LLM calls."""
        return mean([run.total_tokens for run in self.runs])

    @_declare("s", "run")
    def mean_prefill_time(self) -> float:
        """Mean summed prefill seconds per request."""
        return mean([sum(call.prefill_time for call in run.llm_calls) for run in self.runs])

    @_declare("s", "run")
    def mean_decode_time(self) -> float:
        """Mean summed decode seconds per request."""
        return mean([sum(call.decode_time for call in run.llm_calls) for run in self.runs])

    @_declare("s", "run")
    def mean_llm_inference_latency(self) -> float:
        """Mean summed LLM-call latency per request (paper Fig. 9's metric)."""
        return mean([sum(call.e2e_latency for call in run.llm_calls) for run in self.runs])

    @_computed_once
    def latency_breakdown(self) -> LatencyBreakdown:
        """Per-request average LLM/tool/overlap/other split (paper Fig. 5)."""
        return LatencyBreakdown.average(LatencyBreakdown.from_result(run) for run in self.runs)

    @_computed_once
    def token_breakdown(self) -> TokenBreakdown:
        """Per-request average prompt/output token composition (paper Fig. 8)."""
        return TokenBreakdown.average(TokenBreakdown.from_result(run) for run in self.runs)

    @_computed_once
    def gpu_breakdown(self) -> GpuRuntimeBreakdown:
        """GPU prefill/decode/idle split (paper Fig. 6).

        The per-request average over each request's window for
        characterization; the measured window for serving.
        """
        if self.characterization is not None:
            return GpuRuntimeBreakdown.average(
                obs.gpu for obs in self.characterization.observations
            )
        return self.serving.gpu

    # -- throughput & energy -------------------------------------------------------
    @_declare("s", "run")
    def duration(self) -> float:
        """Wall-clock (simulated) span of the measured window."""
        if self.characterization is not None:
            return sum(self.latencies)
        return self.serving.duration

    @_declare("req/s", "run")
    def throughput_qps(self) -> float:
        """Completed requests per simulated second of the measured window."""
        duration = self.duration
        if duration <= 0:
            return 0.0
        return self.num_completed / duration

    @_declare("Wh", "fleet")
    def energy_wh(self) -> float:
        """Engine energy (watt-hours) consumed over the measured window."""
        if self.characterization is not None:
            return sum(obs.energy_wh for obs in self.characterization.observations)
        return self.serving.energy_wh

    @_declare("Wh/request", "fleet")
    def energy_wh_per_query(self) -> float:
        """Energy per completed request (watt-hours)."""
        if self.num_completed == 0:
            return 0.0
        return self.energy_wh / self.num_completed

    # -- fleet metrics ---------------------------------------------------------
    @_declare("replica-s", "fleet")
    def replica_seconds(self) -> float:
        """Replica-seconds paid for across every pool (serving runs only)."""
        if self.serving is None:
            return 0.0
        return self.serving.replica_seconds

    # -- hardware cost & energy --------------------------------------------------
    @_declare("USD", "fleet")
    def cost_usd(self) -> float:
        """USD of replica-seconds, priced per pool's hardware (serving only)."""
        if self.serving is None:
            return 0.0
        return self.serving.cost_usd

    @_declare("tokens", "fleet")
    def served_tokens(self) -> float:
        """Prompt + output tokens of the measured requests (serving only)."""
        if self.serving is None:
            return 0.0
        return self.serving.served_tokens

    @_declare("USD/1k tokens", "fleet")
    def cost_per_1k_tokens(self) -> float:
        """USD per 1000 served tokens (0.0 when nothing was served)."""
        if self.served_tokens <= 0:
            return 0.0
        return self.cost_usd / (self.served_tokens / 1000.0)

    @_declare("J", "fleet")
    def energy_j(self) -> float:
        """Measured-window energy in joules (:attr:`energy_wh` in SI units)."""
        return self.energy_wh * 3600.0

    @property
    def pool_stats(self) -> Dict[str, Any]:
        """Per-pool engine metrics (name -> PoolStats; empty for characterization)."""
        if self.serving is None:
            return {}
        return self.serving.pool_stats

    def per_pool_summary(self) -> List[Dict[str, Any]]:
        """One flat row per replica pool (throughput, p95, energy, cost)."""
        return [stats.as_dict() for stats in self.pool_stats.values()]

    def per_class_summary(self) -> List[Dict[str, Any]]:
        """One flat row per traffic class (see :attr:`classes`).

        Door counts cover the whole run while completions cover the
        measured window, so with a warm-up ``offered - rejected`` exceeds
        ``completed`` by the warm-up count.  ``offered`` falls back to the
        completed count for a class without a door row.
        """
        rows: List[Dict[str, Any]] = []
        for label, view in self.classes.items():
            door = view.admission_stats.get(label)
            row: Dict[str, Any] = {
                "class": label,
                "completed": view.num_completed,
                "mean_latency_s": view.mean_latency,
                "p95_latency_s": view.p95_latency,
                "throughput_qps": view.throughput_qps,
                "accuracy": view.accuracy,
                "offered": door.offered if door is not None else view.num_completed,
                "rejected": view.num_rejected,
                "rejection_rate": view.rejection_rate,
            }
            slo = self.spec.measurement.slo_for(label)
            if slo is not None:
                row["slo_p95_s"] = slo
                row["slo_attainment"] = view.slo_attainment
            rows.append(row)
        return rows

    # -- admission control ------------------------------------------------------
    @property
    def admission_stats(self) -> Dict[str, Any]:
        """Per-class door accounting (name -> ClassAdmissionStats; serving only).

        On a class slice, only that class's row.
        """
        if self.serving is None:
            return {}
        stats = self.serving.admission_stats
        if self.traffic_class is None:
            return stats
        return {
            label: row for label, row in stats.items() if label == self.traffic_class
        }

    @property
    def admission_delays(self) -> List[float]:
        """Per-request wait at the door before a worker slot opened (serving only)."""
        if self.serving is None:
            return []
        return self.serving.admission_delays

    @_declare("requests", "fleet")
    def num_queued(self) -> int:
        """Requests that waited at the door before a worker slot opened."""
        return sum(1 for delay in self.admission_delays if delay > 0)

    @_declare("s", "fleet")
    def mean_admission_delay(self) -> float:
        """Mean wait at the door (seconds)."""
        return mean(self.admission_delays)

    @_declare("s", "fleet")
    def p95_admission_delay(self) -> float:
        """95th-percentile wait at the door (seconds)."""
        return percentile(self.admission_delays, 95.0)

    @_declare("requests", "door")
    def num_rejected(self) -> int:
        """Requests the admission policy shed instead of serving."""
        return sum(stats.rejected for stats in self.admission_stats.values())

    @_declare("fraction", "door")
    def rejection_rate(self) -> float:
        """Shed fraction of the offered load (0.0 with an open door)."""
        offered = sum(stats.offered for stats in self.admission_stats.values())
        if offered == 0:
            return 0.0
        return self.num_rejected / offered

    @_declare("tokens", "door")
    def shed_tokens(self) -> float:
        """Estimated decode tokens the fleet avoided by shedding requests."""
        return sum(stats.shed_tokens for stats in self.admission_stats.values())

    @_declare("fraction", "run")
    def slo_attainment(self) -> Optional[float]:
        """Fraction of measured requests meeting the p95 SLO that governs them.

        The experiment-wide SLO, or on a class slice the class's own SLO
        (falling back to the experiment-wide one).  ``None`` without an SLO
        or when nothing completed.
        """
        slo = self.spec.measurement.slo_for(self.traffic_class)
        latencies = self.latencies
        if slo is None or not latencies:
            return None
        return mean([1.0 if latency <= slo else 0.0 for latency in latencies])

    def per_class_admission(self) -> List[Dict[str, Any]]:
        """One flat row per traffic class of the door accounting."""
        return [stats.as_dict() for stats in self.admission_stats.values()]

    # -- predictive autoscaling -------------------------------------------------
    @_declare("req/s", "fleet")
    def forecast_mae(self) -> Optional[float]:
        """Mean absolute arrival-rate forecast error (predictive runs only)."""
        if self.serving is None:
            return None
        return self.serving.forecast_mae

    @_declare("s", "fleet")
    def scale_ahead_lead_s(self) -> Optional[float]:
        """Mean head start of forecast-triggered grows over the reactive trigger."""
        if self.serving is None or not self.serving.scale_ahead_leads:
            return None
        return mean(self.serving.scale_ahead_leads)

    # -- per-tenant fairness ------------------------------------------------------
    @property
    def tenant_stats(self) -> Optional[Any]:
        """Per-tenant fairness accounting (``None`` for untenanted runs)."""
        if self.serving is None:
            return None
        return self.serving.tenant_stats

    @_declare("ratio", "fleet")
    def served_token_ratio(self) -> Optional[float]:
        """Served-token max/min ratio across contending tenants (1.0 = fair).

        ``inf`` when a contending tenant was fully starved within the
        contended window.
        """
        stats = self.tenant_stats
        return None if stats is None else stats.max_min_ratio

    @_declare("index", "fleet")
    def jain_fairness(self) -> Optional[float]:
        """Jain's fairness index over per-tenant served tokens."""
        stats = self.tenant_stats
        return None if stats is None else stats.jain

    @_declare("fraction", "fleet")
    def tenant_throttle_rate(self) -> Optional[float]:
        """Door rejection fraction of tenanted offers."""
        stats = self.tenant_stats
        return None if stats is None else stats.throttle_rate

    # -- multi-turn sessions ------------------------------------------------------
    @property
    def session_stats(self) -> Optional[Any]:
        """Multi-turn session accounting (``None`` for sessionless runs)."""
        if self.serving is None:
            return None
        return self.serving.session_stats

    @_declare("fraction", "fleet")
    def cross_turn_hit_rate(self) -> Optional[float]:
        """Prefix-cache hit rate over later-turn prompt tokens.

        Measures how much conversation context survived the think-time gap:
        1.0 means every later turn re-read its history straight from the KV
        cache of the replica that served the previous turn.
        """
        stats = self.session_stats
        return None if stats is None else stats.cross_turn_hit_rate

    @_declare("sessions", "fleet")
    def num_sessions(self) -> Optional[int]:
        """Interactions started during the run."""
        stats = self.session_stats
        return None if stats is None else stats.num_sessions

    @_declare("sessions", "fleet")
    def completed_sessions(self) -> Optional[int]:
        """Interactions that finished their final turn."""
        stats = self.session_stats
        return None if stats is None else stats.completed_sessions

    @_declare("turns", "fleet")
    def total_turns(self) -> Optional[int]:
        """Turns served across every session."""
        stats = self.session_stats
        return None if stats is None else stats.total_turns

    @_declare("turns/session", "fleet")
    def mean_turns_per_session(self) -> Optional[float]:
        """Mean turns served per started session."""
        stats = self.session_stats
        return None if stats is None else stats.mean_turns_per_session

    @_declare("re-pins", "fleet")
    def affinity_invalidations(self) -> Optional[int]:
        """Sticky-routing re-pins (spills plus homes lost to replica churn)."""
        stats = self.session_stats
        return None if stats is None else stats.affinity_invalidations

    # -- engine fidelity ----------------------------------------------------------
    @_declare("s", "fleet")
    def prefill_hol_block_s(self) -> float:
        """Seconds decodes spent blocked behind atomic prefill steps."""
        if self.serving is None:
            return 0.0
        return self.serving.prefill_hol_block_s

    @_declare("tokens/step", "fleet")
    def mean_accepted_per_step(self) -> Optional[float]:
        """Mean draft tokens accepted per speculative verify (``None`` = off)."""
        if self.serving is None or self.serving.spec_sequence_steps == 0:
            return None
        return self.serving.spec_accepted_tokens / self.serving.spec_sequence_steps

    @_declare("J", "fleet")
    def draft_energy_j(self) -> float:
        """Joules spent in speculative draft passes (0.0 without speculation)."""
        if self.serving is None:
            return 0.0
        return self.serving.draft_energy_j

    # -- metric vocabulary ------------------------------------------------------
    def metric(self, name: str) -> Any:
        """Resolve a study-metric name on this result (see :func:`resolve_metric`).

        The same vocabulary :meth:`repro.api.study.StudyResult.pareto_frontier`
        and tabulation use, so a metric proven interactively drops straight
        into a study query.
        """
        return resolve_metric(self, name)

    # -- reporting -------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Flat metric dict, convenient for tables and JSON dumps."""
        stats = self.latency_stats
        summary = {
            "kind": self.kind,
            "num_requests": self.num_requests,
            "num_completed": self.num_completed,
            "mean_latency_s": self.mean_latency,
            "p50_latency_s": stats.p50,
            "p95_latency_s": stats.p95,
            "accuracy": self.accuracy,
            "throughput_qps": self.throughput_qps,
            "energy_wh_per_query": self.energy_wh_per_query,
        }
        if self.serving is not None:
            summary["replica_seconds"] = self.replica_seconds
            summary["cost_usd"] = self.cost_usd
            summary["cost_per_1k_tokens"] = self.cost_per_1k_tokens
            summary["energy_j"] = self.energy_j
            summary["rejection_rate"] = self.rejection_rate
            if self.slo_attainment is not None:
                summary["slo_attainment"] = self.slo_attainment
            if self.forecast_mae is not None:
                summary["forecast_mae"] = self.forecast_mae
            if self.scale_ahead_lead_s is not None:
                summary["scale_ahead_lead_s"] = self.scale_ahead_lead_s
            if self.tenant_stats is not None:
                summary["served_token_ratio"] = self.served_token_ratio
                summary["jain_fairness"] = self.jain_fairness
                summary["tenant_throttle_rate"] = self.tenant_throttle_rate
            if self.session_stats is not None:
                summary["num_sessions"] = self.num_sessions
                summary["completed_sessions"] = self.completed_sessions
                summary["total_turns"] = self.total_turns
                summary["cross_turn_hit_rate"] = self.cross_turn_hit_rate
                summary["affinity_invalidations"] = self.affinity_invalidations
            if self.spec.prefill_chunk_tokens is not None:
                summary["prefill_hol_block_s"] = self.prefill_hol_block_s
            if self.mean_accepted_per_step is not None:
                summary["mean_accepted_per_step"] = self.mean_accepted_per_step
                summary["draft_energy_j"] = self.draft_energy_j
        return summary


#: A metric: a :data:`METRICS` name (optionally ``<metric>:<label>``), or a
#: callable extracting a value from a ResultSet.
Metric = Union[str, Callable[[Any], Any]]


def resolve_metric(outcome: Any, metric: Metric, missing_ok: bool = False) -> Any:
    """Evaluate ``metric`` on one outcome (a :class:`ResultSet`).

    ``metric`` is a callable on the outcome or a name: a :data:`METRICS`
    name (``replica_seconds``, ``p95_latency``, ``energy_wh``,
    ``rejection_rate``, ``served_token_ratio``, ...), a run or door metric
    of one traffic class as ``<metric>:<label>`` (``p95_latency:chat``,
    ``slo_attainment:chat``, ``rejection_rate:agent``; read on
    ``outcome.classes[label]``), or the per-decile form
    ``tenant_throttle_decile:<0-9>`` (throttle rate of one tenant
    population decile; decile 0 holds the hottest users).  Values come
    back with their own type, so counts stay ints.

    Unknown metric names always raise (a typo must fail loudly, not render
    as an empty column); ``missing_ok=True`` additionally tolerates metrics
    that are legitimately absent on *this* outcome -- a traffic class the
    point never served, or a ``None``-valued telemetry field such as
    ``forecast_mae`` on a forecaster-less run -- returning ``None``.
    """
    if callable(metric):
        value = metric(outcome)
    elif not isinstance(metric, str):
        raise ValueError(f"metric must be a name or callable, got {metric!r}")
    else:
        name, per_class, label = metric.partition(":")
        if per_class and name == "tenant_throttle_decile":
            try:
                decile = int(label)
            except ValueError:
                decile = -1
            if not 0 <= decile <= 9:
                raise ValueError(
                    f"metric {metric!r}: decile must be an integer in 0..9"
                )
            stats = outcome.tenant_stats
            if stats is None:
                if missing_ok:
                    return None
                raise ValueError(f"metric {metric!r}: outcome has no tenant stats")
            value = stats.decile_throttle_rates()[decile]
            if value is None and not missing_ok:
                raise ValueError(
                    f"metric {metric!r}: no offers landed in decile {decile}"
                )
            return value
        if name not in METRICS:
            raise ValueError(f"outcome has no metric {metric!r}")
        if not per_class:
            value = getattr(outcome, name)
        else:
            if METRICS[name][1] == "fleet":
                raise ValueError(
                    f"metric {metric!r}: {name!r} is fleet-wide and has no "
                    "per-class form"
                )
            view = outcome.classes.get(label)
            if view is None:
                if missing_ok:
                    return None
                raise ValueError(
                    f"metric {metric!r}: outcome has no traffic class {label!r} "
                    f"(classes: {sorted(outcome.classes)})"
                )
            value = getattr(view, name)
    if value is None:
        if missing_ok:
            return None
        raise ValueError(f"metric {metric!r} is None on this outcome")
    return value
