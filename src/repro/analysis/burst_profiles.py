"""Forecasters x traffic shapes: who scales ahead of which burst profile?

PR 4 validated the arrival forecasters on synthetic traces that lived as
private generators inside the forecast tests; with rate shapes promoted
into the spec vocabulary, the same ramp / burst / diurnal profiles are now
*runnable traffic programs*, and this study sweeps them against the
forecaster registry the way Table IV gestures at:

* **offline accuracy** -- every forecaster replayed over the deterministic
  trace of every shape (:func:`repro.serving.shapes.deterministic_trace` +
  :func:`repro.serving.forecast.replay_score`, the exact scoring loop the
  accuracy tests pin), no simulator in the loop;
* **in-the-loop study** -- a :class:`~repro.api.StudySpec` sweeping one
  predictive ``autoscaler`` per forecaster (each carrying only the
  smoothing its forecaster reads) x ``arrival.shape``, reporting the
  realised forecast MAE, the scale-ahead lead time, p95 latency, and
  replica-seconds per cell.

The qualitative shape to expect: the trend-aware ``holt`` forecaster wins
the ramp offline, and in the loop the forecasted runs buy scale-ahead lead
time the ``none`` baseline cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.analysis.study_view import StudyView, predictive_autoscaler
from repro.api import (
    ArrivalSpec,
    AutoscalerSpec,
    ExperimentSpec,
    StudyAxis,
    StudySpec,
    run_study,
)
from repro.serving.forecast import FORECASTERS, replay_score
from repro.serving.shapes import (
    DiurnalShape,
    RampShape,
    RateShape,
    SquareWaveShape,
    deterministic_trace,
)

#: The burst profiles the study sweeps, name -> shape (levels are
#: multipliers on the experiment's base qps).
DEFAULT_PROFILES: Tuple[Tuple[str, RateShape], ...] = (
    ("ramp", RampShape(start_level=0.4, end_level=2.0, ramp_s=40.0)),
    (
        "burst",
        SquareWaveShape(
            base_level=0.5, burst_level=2.5, period_s=40.0, burst_start_s=15.0,
            burst_s=10.0,
        ),
    ),
    ("diurnal", DiurnalShape(mean_level=1.0, amplitude=0.6, period_s=40.0)),
)

#: Forecasters swept in the loop (the ``none`` baseline never scales ahead).
DEFAULT_FORECASTERS: Tuple[str, ...] = ("none", "windowed-rate", "holt")


def offline_accuracy(
    profiles: Sequence[Tuple[str, RateShape]] = DEFAULT_PROFILES,
    forecasters: Sequence[str] = ("windowed-rate", "ewma", "holt"),
    qps: float = 5.0,
    duration_s: float = 60.0,
    horizon_s: float = 5.0,
) -> List[Dict[str, object]]:
    """Forecast MAE of every forecaster on every profile's deterministic trace.

    One row per profile with a column per forecaster -- the pure-accuracy
    view (no serving system in the loop), scored exactly the way the
    forecaster tests pin, each forecaster at its spec defaults.
    """
    rows: List[Dict[str, object]] = []
    for label, shape in profiles:
        trace = deterministic_trace(shape, duration_s=duration_s, qps=qps)
        row: Dict[str, object] = {"profile": label}
        for name in forecasters:
            spec = AutoscalerSpec(mode="predictive", forecaster=name)
            row[f"{name}_mae"] = replay_score(
                FORECASTERS[name.lower()](spec), trace, horizon_s=horizon_s
            )
        rows.append(row)
    return rows


@dataclass
class BurstProfileResult(StudyView):
    """Offline accuracy rows plus the executed forecaster x shape study."""

    accuracy: List[Dict[str, object]]

    METRICS = (
        ("completed", "num_completed"),
        ("p95_s", "p95_latency"),
        ("forecast_mae", "forecast_mae"),
        ("scale_ahead_lead_s", "scale_ahead_lead_s"),
        ("replica_seconds", "replica_seconds"),
    )

    def format_accuracy(self) -> str:
        return format_table(
            self.accuracy, "Offline forecast MAE by profile (req/s; lower is better)"
        )

    def lead_on(self, profile: str, forecaster: str) -> Optional[float]:
        """Scale-ahead lead of one grid cell (``None`` = never scaled ahead)."""
        cell = self.result.at(profile=profile, forecaster=forecaster)
        return cell.outcome.scale_ahead_lead_s

    def best_offline(self, profile: str) -> str:
        """The forecaster with the lowest offline MAE on ``profile``."""
        for row in self.accuracy:
            if row["profile"] == profile:
                scored = {
                    key[: -len("_mae")]: value
                    for key, value in row.items()
                    if key.endswith("_mae")
                }
                return min(scored, key=scored.get)
        raise ValueError(f"unknown profile {profile!r}")


def burst_profile_study(
    qps: float = 4.0,
    num_requests: int = 40,
    profiles: Sequence[Tuple[str, RateShape]] = DEFAULT_PROFILES,
    forecasters: Sequence[str] = DEFAULT_FORECASTERS,
    min_replicas: int = 1,
    max_replicas: int = 4,
    warmup_s: float = 4.0,
    horizon_s: float = 8.0,
    task_pool_size: int = 8,
    seed: int = 0,
) -> BurstProfileResult:
    """Sweep one predictive ``autoscaler`` per forecaster x ``arrival.shape``.

    A chatbot pool under predictive autoscaling serves each traffic
    program; only the forecaster and the shape vary across cells, so MAE,
    lead time, and cost deltas are attributable to the forecaster/profile
    pairing alone.  The offline-accuracy table rides along for the
    no-simulator view of the same grid.
    """
    autoscalers = tuple(
        predictive_autoscaler(
            name,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            check_interval_s=1.0,
            warmup_s=warmup_s,
            horizon_s=horizon_s,
            scale_up_pending_per_replica=3.0,
            scale_down_pending_per_replica=0.5,
        )
        for name in forecasters
    )
    base = ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        arrival=ArrivalSpec(
            process="poisson",
            qps=qps,
            num_requests=num_requests,
            task_pool_size=task_pool_size,
        ),
        autoscaler=autoscalers[0],
        seed=seed,
    )
    study = StudySpec(
        base=base,
        axes=(
            StudyAxis(
                name="profile",
                field="arrival.shape",
                values=tuple(shape for _, shape in profiles),
                labels=tuple(label for label, _ in profiles),
            ),
            StudyAxis(
                name="forecaster",
                field="autoscaler",
                values=autoscalers,
                labels=tuple(forecasters),
            ),
        ),
        name="burst-profiles",
    )
    return BurstProfileResult(
        result=run_study(study),
        title="Predictive autoscaling across burst profiles",
        accuracy=offline_accuracy(profiles, qps=qps),
    )
