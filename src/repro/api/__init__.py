"""Unified experiment API: the single front door for every experiment.

Declare *what* to run with a frozen :class:`ExperimentSpec` (model, replica
count, scheduler and router policies, agent, workload, arrival process, seed,
measurement window), let :class:`SystemBuilder` own *how* it is assembled,
and drive it with :func:`run_experiment`, which returns a unified
:class:`ResultSet` (or sweep it with :func:`run_study`, below).

Quickstart::

    from repro.api import ArrivalSpec, ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        agent="react",
        workload="hotpotqa",
        replicas=4,
        scheduler="sjf-by-predicted-decode",
        router="prefix-affinity",
        arrival=ArrivalSpec(process="poisson", qps=2.0, num_requests=60),
    )
    result = run_experiment(spec)
    print(result.summary())

For datacenter-scale scenarios the spec scales to a heterogeneous elastic
fleet: ``pools=[PoolSpec(...)]`` declares named replica pools (own model,
scheduler, router, traffic classes), ``workloads=[WeightedWorkload(...)]``
serves a weighted chatbot+agent traffic mixture through one arrival process,
and ``autoscaler=AutoscalerSpec(...)`` sizes a pool elastically from load
signals; the :class:`ResultSet` then reports per-pool and per-traffic-class
metrics plus replica-seconds (see ``examples/mixed_fleet.py``).

Traffic programs and studies: ``ArrivalSpec(shape=...)`` modulates the
arrival rate over time with a :mod:`repro.serving.shapes` rate shape
(ramp / square-wave burst / diurnal / trace replay / piecewise), each
``WeightedWorkload`` can carry its own shape so traffic classes burst
independently, and :class:`StudySpec` / :func:`run_study` sweep named axes
over *any* spec field (qps, shape, pool layouts, scheduler, forecaster,
admission) into a :class:`StudyResult` with tabulation, slicing, and
``pareto_frontier`` queries (see ``examples/fleet_sizing.py`` and
``examples/burst_profiles.py``).

Multi-tenancy: ``ArrivalSpec(tenants=TenantSpec(...))`` labels arrivals
with users drawn lazily from a Zipf-skewed population
(:mod:`repro.serving.tenants`), the ``vtc`` scheduler and the
``oit-throttle`` admission policy act on those labels, and tenanted
results report fairness metrics (``served_token_ratio``,
``jain_fairness``, ``tenant_throttle_decile:<d>``) usable as study/Pareto
axes (see ``examples/fairness.py``).

Multi-turn sessions: ``ArrivalSpec(sessions=SessionSpec(...))`` turns each
arrival into a conversation -- a fixed number of turns separated by
think-time gaps, each turn's prompt extending the previous turn's prompt
and answer token for token so the serving-level prefix cache can reuse the
conversation across turns.  The ``session-affinity`` router keeps a
conversation pinned to the replica holding its KV context, a session holds
one admission slot for its whole lifetime (``oit-throttle`` / ``slo-shed``
never sever a conversation mid-flight), and sessionful results report
``cross_turn_hit_rate``, ``total_turns``, ``completed_sessions``, and
``affinity_invalidations`` (see ``examples/sessions.py``).

Heterogeneous hardware: ``PoolSpec(hardware=HardwareSpec(gpu="H100-80GB"))``
(or an experiment-wide ``ExperimentSpec(hardware=...)``) pins pools to
catalog GPUs with their own roofline, power, and hourly cost, results gain
``cost_usd`` / ``energy_j`` / ``cost_per_1k_tokens``,
``pool_classification="cost-aware"`` routes work to the cheapest pool whose
predicted decode still meets the class SLO, and a hardware-layout study's
cost/quality frontier answers the planning question:
:meth:`~repro.analysis.study_view.FrontierView.best_within` returns the
best-quality layout whose cost fits a budget (see
``examples/hetero_fleet.py``).

This package is the only way in: the paper's figures and tables
(:mod:`repro.analysis`) are declared as specs and run through these same
functions, and an offered-load sweep is a one-axis study over ``qps``.
"""

from repro.api.builder import System, SystemBuilder
from repro.api.results import ResultSet, resolve_metric
from repro.api.runners import ServingDriver, run_experiment
from repro.api.spec import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    ExperimentSpec,
    MeasurementSpec,
    PoolSpec,
    WeightedWorkload,
)
from repro.api.study import (
    ParetoPoint,
    StudyAxis,
    StudyPoint,
    StudyResult,
    StudySpec,
    apply_axis_value,
    run_study,
)
from repro.llm.hardware import HardwareSpec
from repro.llm.speculative import SpeculativeSpec
from repro.serving.admission import AdmissionSpec
from repro.serving.autoscaler import AutoscalerSpec
from repro.serving.sessions import SessionSpec, SessionStats
from repro.serving.tenants import TenantSpec

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionSpec",
    "ArrivalSpec",
    "AutoscalerSpec",
    "ExperimentSpec",
    "HardwareSpec",
    "MeasurementSpec",
    "ParetoPoint",
    "PoolSpec",
    "ResultSet",
    "ServingDriver",
    "SessionSpec",
    "SessionStats",
    "SpeculativeSpec",
    "StudyAxis",
    "StudyPoint",
    "StudyResult",
    "StudySpec",
    "System",
    "SystemBuilder",
    "TenantSpec",
    "WeightedWorkload",
    "apply_axis_value",
    "resolve_metric",
    "run_experiment",
    "run_study",
]
