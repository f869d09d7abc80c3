"""Arrival-rate forecasting: the look-ahead half of predictive autoscaling.

An :class:`ArrivalForecaster` watches the arrival timeline (the serving
driver feeds it every request the instant it reaches the door, before any
admission decision) and answers one question: *what arrival rate should the
fleet expect over the next horizon?*  The predictive
:class:`~repro.serving.autoscaler.Autoscaler` mode converts that rate --
times the predicted decode length per request -- into a target replica
count and scales ahead of the demand by the pool's warm-up time.

Built-in forecasters:

* :class:`NoForecaster` (``none``) -- predicts zero future arrivals; a
  predictive autoscaler degenerates to sizing for the backlog already
  enqueued (useful as the look-ahead-free control arm of a study),
* :class:`WindowedRateForecaster` (``windowed-rate``) -- persistence
  forecasting: the rate observed over the trailing ``forecaster_window_s``
  is assumed to continue through the horizon.  Reacts fast, but lags ramps
  by half a window and has no notion of trend,
* :class:`EwmaForecaster` (``ewma``) -- exponentially weighted moving
  average of per-bucket arrival rates; smoother than the raw window (burst
  noise is damped by ``forecaster_alpha``) but, like persistence,
  trend-blind,
* :class:`HoltForecaster` (``holt``) -- double exponential smoothing
  (Holt's linear method): a level *and* a trend term, extrapolated
  ``horizon_s`` ahead.  The only built-in that scales ahead of a ramp
  instead of chasing it.

Every forecaster is built from the experiment's
:class:`~repro.serving.autoscaler.AutoscalerSpec` as
``FORECASTERS[name](spec)`` and reads its parameters off ``self.spec``;
``READS`` lists the ``forecaster_*`` fields it reads, and the spec rejects
any other set away from its default.

Every forecaster also keeps the books needed to score itself: each
:meth:`~ArrivalForecaster.forecast_rate` call is logged, and once simulated
time passes the forecast's target the realised arrival rate over the
forecast interval is known, giving the absolute forecast error reported in
:class:`~repro.api.results.ResultSet` (``forecast_mae``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Tuple, Type

from repro.registry import PolicyRegistry

if TYPE_CHECKING:  # the spec module imports this registry to validate
    from repro.serving.autoscaler import AutoscalerSpec


class ArrivalForecaster:
    """Predicts the arrival rate the fleet will see over a future horizon.

    Subclasses implement :meth:`_predict_rate` and list the spec fields
    they read in ``READS``; the base class owns the arrival timeline
    (:meth:`observe`), the forecast log, and the error accounting
    (:meth:`mean_absolute_error`).  Rates are requests/second.
    """

    name = "base"
    READS: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, spec: AutoscalerSpec) -> None:
        self.spec = spec
        #: Observed arrival timestamps, append-ordered (simulated seconds).
        self.arrivals: List[float] = []
        # (made_at, target_time, predicted_rate) per forecast_rate call.
        self._forecasts: List[Tuple[float, float, float]] = []

    # -- timeline ------------------------------------------------------------
    def observe(self, t: float) -> None:
        """Record one arrival at simulated time ``t``."""
        self.arrivals.append(t)

    def _arrivals_between(self, start: float, end: float) -> int:
        """Arrivals observed in ``(start, end]`` (binary search on the timeline)."""
        import bisect

        lo = bisect.bisect_right(self.arrivals, start)
        hi = bisect.bisect_right(self.arrivals, end)
        return hi - lo

    # -- forecasting ---------------------------------------------------------
    def forecast_rate(self, now: float, horizon_s: float) -> float:
        """Predicted mean arrival rate (req/s) over ``[now, now + horizon_s]``.

        The forecast is logged so its error can be scored once simulated
        time reaches the target.
        """
        if horizon_s <= 0:
            raise ValueError("forecast horizon_s must be > 0")
        rate = max(0.0, self._predict_rate(now, horizon_s))
        self._forecasts.append((now, now + horizon_s, rate))
        return rate

    def _predict_rate(self, now: float, horizon_s: float) -> float:
        raise NotImplementedError

    # -- error accounting ----------------------------------------------------
    def matured_errors(self, now: float) -> List[float]:
        """|predicted - realised| rate for every forecast whose target passed."""
        errors: List[float] = []
        for made_at, target, predicted in self._forecasts:
            if target > now:
                continue
            horizon = target - made_at
            actual = self._arrivals_between(made_at, target) / horizon
            errors.append(abs(predicted - actual))
        return errors

    def mean_absolute_error(self, now: float) -> Optional[float]:
        """Mean absolute rate error over matured forecasts (``None`` if none)."""
        errors = self.matured_errors(now)
        if not errors:
            return None
        return sum(errors) / len(errors)


class NoForecaster(ArrivalForecaster):
    """Predicts zero future arrivals (the look-ahead-free control arm)."""

    name = "none"

    def _predict_rate(self, now: float, horizon_s: float) -> float:
        return 0.0


class WindowedRateForecaster(ArrivalForecaster):
    """Persistence forecasting: the trailing-window rate continues unchanged."""

    name = "windowed-rate"
    READS = ("forecaster_window_s",)

    def _predict_rate(self, now: float, horizon_s: float) -> float:
        window_s = self.spec.forecaster_window_s
        span = min(window_s, now) if now > 0 else window_s
        if span <= 0:
            return 0.0
        return self._arrivals_between(now - span, now) / span


class _BucketedForecaster(ArrivalForecaster):
    """Shared machinery: arrivals folded into fixed buckets of per-bucket rate.

    Subclasses consume one closed bucket at a time through :meth:`_update`
    (empty buckets included -- a smoother that never sees zeros cannot track
    a dying burst down).
    """

    def __init__(self, spec: AutoscalerSpec) -> None:
        super().__init__(spec)
        self._bucket_start = 0.0
        self._bucket_count = 0

    def observe(self, t: float) -> None:
        self._fold_until(t)
        super().observe(t)
        self._bucket_count += 1

    def _fold_until(self, t: float) -> None:
        """Close every bucket that fully elapsed before ``t``."""
        bucket_s = self.spec.forecaster_bucket_s
        while t >= self._bucket_start + bucket_s:
            self._update(self._bucket_count / bucket_s)
            self._bucket_count = 0
            self._bucket_start += bucket_s

    def _update(self, rate: float) -> None:
        raise NotImplementedError


class EwmaForecaster(_BucketedForecaster):
    """EWMA of per-bucket arrival rates; the smoothed level is the forecast."""

    name = "ewma"
    READS = ("forecaster_bucket_s", "forecaster_alpha")

    def __init__(self, spec: AutoscalerSpec) -> None:
        super().__init__(spec)
        self.level: Optional[float] = None

    def _update(self, rate: float) -> None:
        if self.level is None:
            self.level = rate
        else:
            alpha = self.spec.forecaster_alpha
            self.level = alpha * rate + (1 - alpha) * self.level

    def _predict_rate(self, now: float, horizon_s: float) -> float:
        self._fold_until(now)
        return self.level if self.level is not None else 0.0


class HoltForecaster(_BucketedForecaster):
    """Holt's linear (double exponential) smoothing: level + trend look-ahead.

    ``level`` tracks the smoothed rate, ``trend`` its per-bucket slope; the
    forecast extrapolates ``horizon_s / forecaster_bucket_s`` buckets
    ahead, floored at zero (arrival rates cannot go negative).
    """

    name = "holt"
    READS = ("forecaster_bucket_s", "forecaster_alpha", "forecaster_beta")

    def __init__(self, spec: AutoscalerSpec) -> None:
        super().__init__(spec)
        self.level: Optional[float] = None
        self.trend = 0.0

    def _update(self, rate: float) -> None:
        if self.level is None:
            self.level = rate
            self.trend = 0.0
            return
        alpha, beta = self.spec.forecaster_alpha, self.spec.forecaster_beta
        previous = self.level
        self.level = alpha * rate + (1 - alpha) * (self.level + self.trend)
        self.trend = beta * (self.level - previous) + (1 - beta) * self.trend

    def _predict_rate(self, now: float, horizon_s: float) -> float:
        self._fold_until(now)
        if self.level is None:
            return 0.0
        # forecast_rate's contract is the MEAN rate over the horizon, not the
        # endpoint: for a linear trend over buckets 1..k that mean is
        # level + trend * (k + 1) / 2.
        steps = horizon_s / self.spec.forecaster_bucket_s
        return self.level + self.trend * (steps + 1.0) / 2.0


FORECASTER_REGISTRY = PolicyRegistry("arrival forecaster")
#: name -> class mapping (keys are lower-case); ``FORECASTERS[name](spec)``
#: builds one.
FORECASTERS: Dict[str, Type[ArrivalForecaster]] = FORECASTER_REGISTRY.policies


def register_forecaster(
    forecaster_class: Type[ArrivalForecaster],
) -> Type[ArrivalForecaster]:
    """Register a forecaster under its ``name`` (also usable as a decorator)."""
    return FORECASTER_REGISTRY.register(forecaster_class)


register_forecaster(NoForecaster)
register_forecaster(WindowedRateForecaster)
register_forecaster(EwmaForecaster)
register_forecaster(HoltForecaster)


def available_forecasters() -> List[str]:
    return FORECASTER_REGISTRY.available()


def replay_score(
    forecaster: ArrivalForecaster,
    arrivals: List[float],
    horizon_s: float = 5.0,
    interval_s: float = 2.0,
    start_s: float = 4.0,
) -> float:
    """Replay an arrival trace through a forecaster and return its MAE.

    Walks simulated time from ``start_s`` to the last arrival in
    ``interval_s`` steps, feeding the forecaster every arrival up to the
    current instant and asking for a ``horizon_s``-ahead forecast at each
    step; the result is the mean absolute rate error over every matured
    forecast.  This is the scoring loop the forecaster-accuracy tests pin,
    shared so studies (forecaster x traffic shape sweeps) score the same
    way the tests do.  Deterministic traces come from
    :func:`repro.serving.shapes.deterministic_trace`.
    """
    if not arrivals:
        raise ValueError("replay_score needs a non-empty arrival trace")
    if interval_s <= 0:
        raise ValueError("replay_score interval_s must be > 0")
    pending = iter(arrivals)
    upcoming: Optional[float] = next(pending)
    t, end = start_s, arrivals[-1]
    while t < end:
        while upcoming is not None and upcoming <= t:
            forecaster.observe(upcoming)
            upcoming = next(pending, None)
        forecaster.forecast_rate(t, horizon_s)
        t += interval_s
    error = forecaster.mean_absolute_error(end)
    if error is None:
        raise ValueError(
            "replay_score produced no matured forecasts (trace shorter than "
            "start_s + horizon_s)"
        )
    return error
