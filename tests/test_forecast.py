"""Arrival-forecaster registry: construction, folding, and accuracy.

Every forecaster is built from an :class:`AutoscalerSpec` as
``FORECASTERS[name](spec)``, and the spec rejects a ``forecaster_*`` field
the chosen forecaster does not read.

Accuracy is scored on deterministic synthetic arrival traces (no RNG --
arrival times come from :func:`repro.serving.shapes.deterministic_trace`,
the shared rate-shape integrator the spec vocabulary uses), covering the
three shapes predictive autoscaling must survive: a linear *ramp*, a
square-wave *burst*, and a sinusoidal *diurnal* cycle, scored through the
shared :func:`repro.serving.forecast.replay_score` loop.  The assertions
pin the qualitative ordering, not absolute errors: every real forecaster
beats the ``none`` baseline, and only the trend-aware ``holt`` forecaster
keeps up with a ramp.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.api import AutoscalerSpec
from repro.serving.autoscaler import Autoscaler
from repro.serving.forecast import (
    FORECASTERS,
    ArrivalForecaster,
    EwmaForecaster,
    HoltForecaster,
    NoForecaster,
    WindowedRateForecaster,
    available_forecasters,
    register_forecaster,
    replay_score,
)
from repro.serving.shapes import (
    DiurnalShape,
    RampShape,
    SquareWaveShape,
    deterministic_trace,
)
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Synthetic traces: the shared shape library integrating a known rate
# ---------------------------------------------------------------------------


def ramp_trace() -> List[float]:
    """Rate climbs linearly 1 -> 11 req/s over 60 s."""
    return deterministic_trace(
        RampShape(start_level=1.0, end_level=11.0, ramp_s=60.0), duration_s=60.0
    )


def burst_trace() -> List[float]:
    """Square wave: 1 req/s baseline, 10 req/s burst over t in [20, 40)."""
    return deterministic_trace(
        SquareWaveShape(
            base_level=1.0, burst_level=10.0, period_s=60.0, burst_start_s=20.0,
            burst_s=20.0,
        ),
        duration_s=60.0,
    )


def diurnal_trace() -> List[float]:
    """Sinusoidal rate 3 +- 2 req/s with a 60 s period, two cycles."""
    return deterministic_trace(
        DiurnalShape(mean_level=3.0, amplitude=2.0, period_s=60.0), duration_s=120.0
    )


def build(name: str, **fields: float) -> ArrivalForecaster:
    """The forecaster a predictive autoscaler on ``name`` builds from its spec
    (the controller touches no pool until the environment runs)."""
    spec = AutoscalerSpec(mode="predictive", forecaster=name, **fields)
    return Autoscaler(Environment(), pool=None, spec=spec).forecaster


def score(forecaster: ArrivalForecaster, trace: List[float], horizon_s: float = 5.0) -> float:
    """Drive the forecaster along the trace via the shared scoring loop."""
    return replay_score(forecaster, trace, horizon_s=horizon_s)


TRACES: Dict[str, List[float]] = {
    "ramp": ramp_trace(),
    "burst": burst_trace(),
    "diurnal": diurnal_trace(),
}


# ---------------------------------------------------------------------------
# Registry and construction
# ---------------------------------------------------------------------------


class TestForecasterRegistry:
    def test_builtins_registered(self):
        assert available_forecasters() == ["ewma", "holt", "none", "windowed-rate"]

    def test_build_by_name_case_insensitive(self):
        assert isinstance(build("none"), NoForecaster)
        assert isinstance(build("HOLT"), HoltForecaster)
        assert isinstance(build("ewma"), EwmaForecaster)
        assert isinstance(build("Windowed-Rate"), WindowedRateForecaster)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival forecaster"):
            AutoscalerSpec(mode="predictive", forecaster="arima")

    def test_build_threads_parameters(self):
        windowed = build("windowed-rate", forecaster_window_s=4.0)
        for t in (1.0, 2.0, 3.0, 14.0, 15.0):
            windowed.observe(t)
        # At t=16 the 4 s window (12, 16] holds two arrivals.
        assert windowed.forecast_rate(16.0, 5.0) == pytest.approx(0.5)
        holt = build(
            "holt", forecaster_bucket_s=1.0, forecaster_alpha=0.7, forecaster_beta=0.2
        )
        for t in (0.2, 0.6, 1.1, 1.3, 1.5, 1.7):  # 2 then 4 req/s buckets
            holt.observe(t)
        # level = 0.7 * 4 + 0.3 * 2 = 3.4, trend = 0.2 * (3.4 - 2) = 0.28;
        # one 1 s bucket ahead the mean rate is 3.4 + 0.28 * (1 + 1) / 2.
        assert holt.forecast_rate(2.0, 1.0) == pytest.approx(3.68)

    def test_custom_forecaster_registration(self):
        class ConstantForecaster(ArrivalForecaster):
            name = "constant-test"
            READS = ("forecaster_window_s",)

            def _predict_rate(self, now, horizon_s):
                return self.spec.forecaster_window_s / 4.0

        try:
            register_forecaster(ConstantForecaster)
            built = build("constant-test", forecaster_window_s=10.0)
            assert built.forecast_rate(1.0, 5.0) == 2.5
            # A registered class's READS gates its spec like a built-in's.
            with pytest.raises(ValueError, match="does not take forecaster_alpha"):
                build("constant-test", forecaster_alpha=0.7)
        finally:
            FORECASTERS.pop("constant-test", None)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="window/bucket"):
            AutoscalerSpec(mode="predictive", forecaster_window_s=0.0)
        with pytest.raises(ValueError, match="alpha/beta"):
            AutoscalerSpec(mode="predictive", forecaster="ewma", forecaster_alpha=0.0)
        with pytest.raises(ValueError, match="alpha/beta"):
            AutoscalerSpec(mode="predictive", forecaster="holt", forecaster_beta=1.5)
        with pytest.raises(ValueError, match="window/bucket"):
            AutoscalerSpec(mode="predictive", forecaster="ewma", forecaster_bucket_s=-1.0)

    def test_forecast_requires_positive_horizon(self):
        with pytest.raises(ValueError, match="horizon_s"):
            build("none").forecast_rate(1.0, 0.0)


#: Every smoothing field each built-in forecaster reads, set away from its
#: default, and one field it does not read.
READ_FIELDS = {
    "none": {},
    "windowed-rate": {"forecaster_window_s": 4.0},
    "ewma": {"forecaster_bucket_s": 1.0, "forecaster_alpha": 0.7},
    "holt": {
        "forecaster_bucket_s": 1.0,
        "forecaster_alpha": 0.7,
        "forecaster_beta": 0.2,
    },
}
IGNORED_FIELD = {
    "none": ("forecaster_window_s", 4.0),
    "windowed-rate": ("forecaster_alpha", 0.6),
    "ewma": ("forecaster_beta", 0.4),
    "holt": ("forecaster_window_s", 4.0),
}


class TestSpecRejectsWhatNothingReads:
    def test_every_builtin_is_covered(self):
        assert sorted(READ_FIELDS) == sorted(IGNORED_FIELD) == available_forecasters()

    @pytest.mark.parametrize("name", sorted(READ_FIELDS))
    def test_forecaster_takes_every_field_it_reads(self, name):
        forecaster = build(name, **READ_FIELDS[name])
        assert forecaster.READS == tuple(READ_FIELDS[name])
        for field, value in READ_FIELDS[name].items():
            assert getattr(forecaster.spec, field) == value

    @pytest.mark.parametrize("name", sorted(IGNORED_FIELD))
    def test_forecaster_rejects_a_field_it_ignores(self, name):
        field, value = IGNORED_FIELD[name]
        with pytest.raises(ValueError, match=f"{name}.*does not take {field}"):
            AutoscalerSpec(mode="predictive", forecaster=name, **{field: value})

    def test_reactive_spec_takes_no_forecaster_field(self):
        with pytest.raises(ValueError, match="does not take forecaster$"):
            AutoscalerSpec(forecaster="holt")
        with pytest.raises(ValueError, match="does not take forecaster_alpha"):
            AutoscalerSpec(forecaster_alpha=0.6)
        # The cooperative slo-shed gate reads horizon_s in either mode.
        assert AutoscalerSpec(horizon_s=5.0).horizon_s == 5.0


# ---------------------------------------------------------------------------
# Mechanics
# ---------------------------------------------------------------------------


class TestForecasterMechanics:
    def test_windowed_rate_counts_trailing_window(self):
        forecaster = build("windowed-rate", forecaster_window_s=10.0)
        for t in (1.0, 2.0, 3.0, 14.0, 15.0):
            forecaster.observe(t)
        # At t=16 the window (6, 16] holds two arrivals.
        assert forecaster.forecast_rate(16.0, 5.0) == pytest.approx(0.2)

    def test_windowed_rate_early_window_not_diluted(self):
        # Before a full window has elapsed the rate divides by elapsed time,
        # not the window span: 4 arrivals by t=2 is 2 req/s, not 0.4.
        forecaster = build("windowed-rate", forecaster_window_s=10.0)
        for t in (0.5, 1.0, 1.5, 2.0):
            forecaster.observe(t)
        assert forecaster.forecast_rate(2.0, 5.0) == pytest.approx(2.0)

    def test_ewma_folds_empty_buckets(self):
        # A smoother that never sees empty buckets can never track a dying
        # burst down; after a long silence the level must decay.
        forecaster = build("ewma", forecaster_bucket_s=1.0, forecaster_alpha=0.5)
        for t in (0.1, 0.2, 0.3, 0.4):  # one hot bucket: 4 req/s
            forecaster.observe(t)
        hot = forecaster.forecast_rate(2.0, 5.0)
        cold = forecaster.forecast_rate(10.0, 5.0)
        assert cold < hot * 0.1

    def test_holt_extrapolates_trend(self):
        # Rising per-bucket rates give a positive trend: the forecast at a
        # long horizon must exceed the last observed level.
        forecaster = build(
            "holt", forecaster_bucket_s=1.0, forecaster_alpha=0.5, forecaster_beta=0.5
        )
        t = 0.0
        for bucket, count in enumerate((1, 2, 3, 4, 5)):
            for i in range(count):
                forecaster.observe(bucket + (i + 1) / (count + 1))
        short = forecaster.forecast_rate(5.0, 1.0)
        long = forecaster.forecast_rate(5.0, 10.0)
        assert forecaster.trend > 0
        assert long > short

    def test_forecast_never_negative(self):
        # A falling trend extrapolated far ahead must floor at zero.
        forecaster = build(
            "holt", forecaster_bucket_s=1.0, forecaster_alpha=0.8, forecaster_beta=0.8
        )
        for bucket, count in enumerate((8, 4, 2, 1, 0, 0)):
            for i in range(count):
                forecaster.observe(bucket + (i + 1) / (count + 1))
        assert forecaster.forecast_rate(6.0, 50.0) == 0.0

    def test_error_accounting_scores_matured_forecasts_only(self):
        forecaster = build("none")
        for t in (1.0, 2.0, 3.0, 4.0):
            forecaster.observe(t)
        forecaster.forecast_rate(0.0, 4.0)   # matures at t=4: actual 1 req/s
        forecaster.forecast_rate(4.0, 10.0)  # immature at t=5
        assert forecaster.matured_errors(5.0) == [pytest.approx(1.0)]
        assert forecaster.mean_absolute_error(5.0) == pytest.approx(1.0)
        # Nothing matured yet at t=2.
        assert forecaster.mean_absolute_error(2.0) is None


# ---------------------------------------------------------------------------
# Accuracy on synthetic traces
# ---------------------------------------------------------------------------


class TestForecasterAccuracy:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    def test_every_real_forecaster_beats_the_none_baseline(self, trace_name):
        trace = TRACES[trace_name]
        baseline = score(build("none"), trace)
        for name in ("windowed-rate", "ewma", "holt"):
            assert score(build(name), trace) < baseline, name

    def test_trend_aware_holt_wins_the_ramp(self):
        # Persistence and EWMA chase a ramp from behind; Holt's trend term
        # extrapolates it, cutting the error by a wide margin.
        trace = TRACES["ramp"]
        holt = score(build("holt"), trace)
        assert holt < score(build("windowed-rate"), trace) * 0.5
        assert holt < score(build("ewma"), trace) * 0.5

    def test_smoothing_damps_burst_noise(self):
        # On the square wave the smoothed level overshoots less than raw
        # persistence once the burst ends.
        trace = TRACES["burst"]
        assert score(build("ewma"), trace) < score(
            build("windowed-rate"), trace
        )
