"""Multi-tenant fairness: schedulers x tenant skew x load, Pareto-queried.

A serving fleet is never one customer: arrivals come from a heavy-tailed
population of users -- a handful of whales and a long tail of occasional
callers -- and a scheduler that ignores identity lets the whales starve
the tail whenever capacity is contended.  This study makes the question
concrete with the declarative study machinery: a
:class:`~repro.api.StudySpec` sweeps admission-order policy (the
``scheduler`` axis: fcfs, priority, sjf-by-predicted-decode, and the
per-tenant ``vtc`` virtual-token-counter policy) against tenant skew (the
``arrival.tenants`` axis: a mildly vs heavily Zipf-skewed million-user
population) and offered load, over the weighted chat+agent mixture with a
chat latency SLO.

Fairness is read off :attr:`~repro.api.ResultSet.served_token_ratio`
(served-token max/min across contending tenants over the contended
window; 1.0 = perfectly fair) and :attr:`~repro.api.ResultSet.jain_fairness`,
and the frontier query ``pareto_frontier(cost="served_token_ratio",
quality="slo_attainment:chat", minimize_quality=False)`` answers the
operator's question directly: which scheduler buys fairness without
paying for it in interactive SLO attainment?

The headline read: under heavy skew ``vtc`` holds the served-token ratio
well below fcfs (whose ratio blows up as the whale monopolises the
contended window) at equal or better chat SLO attainment -- fairness
scheduling is close to free.  ``examples/fairness.py`` prints the grid
and the frontier.

:func:`predictor_error_study` probes the other scheduler claim: sjf's
mean-latency win over fcfs assumes the decode-length predictor is good.
Sweeping the predictor's multiplicative noise on the same contended
mixture shows the advantage is robust to mild noise (about +19% at a
perfect oracle, +17% at sigma 0.5), halves around sigma 1, and collapses
entirely by sigma 2 -- beyond that the "shortest" pick is effectively
random and sjf degenerates to fcfs (while still paying sjf's chat-tail
cost, since long chat requests keep losing ties to short agent steps).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.agents import AgentConfig
from repro.analysis.study_view import FrontierView, StudyView, chat_agent_mixture
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    StudyAxis,
    StudySpec,
    run_study,
)
from repro.serving.tenants import TenantSpec

#: The admission-order policies the study compares.
FAIRNESS_SCHEDULERS: Tuple[str, ...] = (
    "fcfs",
    "priority",
    "sjf-by-predicted-decode",
    "vtc",
)


class FairnessStudyResult(FrontierView):
    """The executed fairness grid: served-token ratio vs chat attainment."""

    METRICS = (
        ("completed", "num_completed"),
        ("served_ratio", "served_token_ratio"),
        ("jain", "jain_fairness"),
        ("chat_p95_s", "p95_latency:chat"),
        ("chat_slo", "slo_attainment:chat"),
    )
    COST, QUALITY, MINIMIZE_QUALITY = "served_ratio", "chat_slo", False
    FRONTIER_AXES = ("scheduler", "qps")
    FRONTIER_EXTRAS = ("jain",)
    FRONTIER_TITLE = "Pareto frontier under {skew} skew (fairness vs chat attainment)"

    def mean_served_ratio(self, scheduler: str, skew: str) -> float:
        """Served-token ratio averaged over the load axis (one skew level)."""
        points = self.result.slice(scheduler=scheduler, skew=skew).points
        ratios = [point.metric("served_token_ratio") for point in points]
        return sum(ratios) / len(ratios)


class PredictorErrorStudyResult(StudyView):
    """Scheduler x predictor-noise grid: where does sjf's advantage collapse?"""

    METRICS = (
        ("completed", "num_completed"),
        ("mean_s", "mean_latency"),
        ("p95_s", "p95_latency"),
        ("chat_p95_s", "p95_latency:chat"),
    )

    def sjf_advantage(self, error: str) -> float:
        """Relative mean-latency win of sjf over fcfs at one noise level.

        Positive = sjf is faster; 0.10 means a 10% lower mean latency.
        fcfs ignores the predictor, so its cell doubles as the noise-free
        baseline at every error level.
        """
        fcfs = self.metric("mean_latency", scheduler="fcfs", error=error)
        sjf = self.metric(
            "mean_latency", scheduler="sjf-by-predicted-decode", error=error
        )
        if fcfs <= 0:
            return 0.0
        return (fcfs - sjf) / fcfs

    def collapse_error(self, threshold: float = 0.02) -> Optional[str]:
        """Smallest swept noise level where sjf's advantage falls below ``threshold``.

        ``None`` when sjf keeps its edge across the whole sweep.  The error
        labels are swept in declaration order, which the study builds
        ascending, so the first sub-threshold cell is the collapse point.
        """
        for axis in self.result.study.axes:
            if axis.name != "error":
                continue
            for index in range(len(axis.values)):
                label = axis.label_for(index)
                if self.sjf_advantage(label) < threshold:
                    return label
        return None


def predictor_error_study(
    error_values: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    qps: float = 8.0,
    num_requests: int = 32,
    chat_weight: float = 0.7,
    agent_weight: float = 0.3,
    max_num_seqs: int = 2,
    task_pool_size: int = 10,
    seed: int = 0,
    parallel: int = 1,
) -> PredictorErrorStudyResult:
    """Sweep decode-predictor noise against the sjf and fcfs arms.

    Same contended chat+agent mixture as :func:`fairness_study` (engine
    batch capped so admission order matters), untenanted so the only moving
    part is the scheduler's view of decode lengths.  ``predictor_error`` is
    the standard deviation of the predictor's multiplicative noise
    (0 = the perfect oracle the built-in SJF historically assumed); fcfs
    never consults the predictor, so its arm is flat and serves as the
    baseline at every noise level.
    """
    base = ExperimentSpec(
        workloads=chat_agent_mixture(chat_weight, agent_weight),
        agent_config=AgentConfig(max_iterations=4),
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps,
            num_requests=num_requests,
            task_pool_size=task_pool_size,
        ),
        max_num_seqs=max_num_seqs,
        seed=seed,
    )
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(
                name="scheduler",
                values=("fcfs", "sjf-by-predicted-decode"),
            ),
            StudyAxis(
                name="error",
                field="predictor_error",
                values=tuple(error_values),
                labels=tuple(f"{error:g}" for error in error_values),
            ),
        ),
        name="predictor-error",
    )
    return PredictorErrorStudyResult(
        result=run_study(study, parallel=parallel),
        title="sjf-by-predicted-decode vs fcfs under a noisy decode predictor",
    )


def fairness_study(
    qps_values: Sequence[float] = (4.0, 8.0),
    num_requests: int = 32,
    chat_weight: float = 0.7,
    agent_weight: float = 0.3,
    chat_slo_s: float = 20.0,
    num_users: int = 1_000_000,
    skews: Sequence[Tuple[str, float]] = (("mild", 1.1), ("heavy", 1.6)),
    schedulers: Sequence[str] = FAIRNESS_SCHEDULERS,
    max_num_seqs: int = 2,
    task_pool_size: int = 10,
    seed: int = 0,
    parallel: int = 1,
) -> FairnessStudyResult:
    """Sweep scheduler x tenant skew x load on the tenanted mixture.

    Every grid point serves the same chat+agent mixture from the same
    million-user Zipf population at the same seed; only the admission-order
    policy, the skew exponent, and the offered load vary, so fairness
    movement is attributable to the scheduler.  ``max_num_seqs`` caps the
    engine batch so requests genuinely contend at the scheduler's admission
    door -- with an unbounded batch every policy admits immediately and the
    policies are indistinguishable.

    ``parallel`` fans the grid points out over a process pool (see
    :func:`repro.api.run_study`); results are bit-identical to serial runs.
    """
    base = ExperimentSpec(
        workloads=chat_agent_mixture(chat_weight, agent_weight),
        agent_config=AgentConfig(max_iterations=4),
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps_values[0],
            num_requests=num_requests,
            task_pool_size=task_pool_size,
            tenants=TenantSpec(num_users=num_users, skew=skews[0][1], num_apps=40),
        ),
        measurement=MeasurementSpec(class_slos=(("chat", chat_slo_s),)),
        max_num_seqs=max_num_seqs,
        seed=seed,
    )
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(
                name="scheduler",
                values=tuple(schedulers),
            ),
            StudyAxis(
                name="skew",
                field="arrival.tenants",
                values=tuple(
                    TenantSpec(num_users=num_users, skew=skew, num_apps=40)
                    for _, skew in skews
                ),
                labels=tuple(label for label, _ in skews),
            ),
            StudyAxis(
                name="qps",
                field="arrival.qps",
                values=tuple(qps_values),
            ),
        ),
        name="tenant-fairness",
    )
    return FairnessStudyResult(
        result=run_study(study, parallel=parallel),
        title=(
            f"Scheduler fairness on the chat+agent mixture "
            f"(chat p95 SLO {chat_slo_s:g}s)"
        ),
    )
