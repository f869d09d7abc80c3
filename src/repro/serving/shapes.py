"""Rate shapes: the time-varying half of the traffic-program vocabulary.

The paper's datacenter scenario (Table IV) is about *time-varying* mixed
traffic, but constant-rate Poisson arrivals cannot express it.  A
:class:`RateShape` is a dimensionless modulation of an arrival process's
base rate: at simulated time ``t`` the effective arrival rate is
``qps * shape.level(t)``, so a shape composes with any base rate (QPS
sweeps keep sweeping) and any arrival process (Poisson arrivals are
modulated by thinning, deterministic arrivals by rate integration).

Built-in shapes (the registry accepts external ones too):

* :class:`ConstantShape` -- ``level`` everywhere (``level=1.0`` is the
  unshaped constant rate; ``level=0.0`` is silence, useful as a
  piecewise segment),
* :class:`RampShape` -- linear from ``start_level`` to ``end_level`` over
  ``ramp_s``, holding ``end_level`` afterwards (load migrations, launches),
* :class:`SquareWaveShape` -- ``base_level`` with a ``burst_level`` window
  of ``burst_s`` starting at ``burst_start_s`` in every ``period_s``
  (recurring bursts; one period models a single square burst),
* :class:`DiurnalShape` -- sinusoid ``mean_level + amplitude * sin(...)``
  with ``period_s`` and ``phase_s`` (day/night cycles),
* :class:`TraceShape` -- piecewise-constant replay of a recorded rate
  timeline ``(times, levels)`` (production traces),
* :class:`PiecewiseShape` -- ``(duration_s, shape)`` segments played back
  to back, each on its own local clock; the final segment's shape
  continues past the programmed end.

Every shape is a frozen dataclass: validated on construction, hashable,
serialisable through ``dataclasses.asdict`` and rebuilt by
:func:`repro.api.codec.from_dict` (the ``kind`` field is the registry
discriminator), and usable directly as an
:class:`~repro.api.spec.ArrivalSpec` / ``WeightedWorkload`` field.

:func:`deterministic_trace` integrates a shape into deterministic arrival
times (``t += 1 / rate(t)``) -- the synthetic ramp/burst/diurnal traces the
forecaster-accuracy tests pin are generated this way.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from repro.registry import PolicyRegistry

#: Step discontinuities a zero-rate walk crosses before it gives up: a level
#: that stays zero across this many of them is treated as never recovering
#: (a periodic shape times a shape that dies for good has boundaries forever).
_MAX_ZERO_RATE_STEPS = 10_000


class RateShape:
    """A dimensionless, time-varying modulation of an arrival process's rate.

    Subclasses implement :meth:`level` (the multiplier at time ``t``; the
    effective rate is ``qps * level(t)``), :attr:`max_level` (a finite
    upper bound on ``level``, the thinning envelope), and optionally
    :meth:`next_change` (the next step discontinuity after ``t`` --
    ``None`` for continuous shapes; deterministic generators use it to
    skip zero-rate spans without scanning).
    """

    name = "base"

    # -- contract -------------------------------------------------------------
    def level(self, t: float) -> float:
        """Rate multiplier at simulated time ``t`` (>= 0)."""
        raise NotImplementedError

    @property
    def max_level(self) -> float:
        """Finite upper bound on :meth:`level` (the thinning envelope)."""
        raise NotImplementedError

    def next_change(self, t: float) -> Optional[float]:
        """Next step-discontinuity time strictly after ``t`` (``None`` if none)."""
        return None

    def next_positive(self, t: float) -> Optional[float]:
        """Earliest time >= ``t`` at which the level can be positive.

        ``t`` itself when the level is positive there (or vanishes only at
        isolated points, like a diurnal trough -- continuous shapes
        override); otherwise the walk over step discontinuities finds the
        next positive span.  ``None`` means the rate never recovers -- the
        arrival stream is over.  Generators use this to skip zero-rate
        spans without spinning through doomed candidates.
        """
        for _ in range(_MAX_ZERO_RATE_STEPS):
            if self.level(t) > 0:
                return t
            boundary = self.next_change(t)
            if boundary is None or boundary <= t:
                return None
            t = boundary
        return None


SHAPE_REGISTRY = PolicyRegistry("rate shape")
#: name -> class mapping (keys are lower-case); kept for membership checks.
RATE_SHAPES: Dict[str, Type[RateShape]] = SHAPE_REGISTRY.policies


def register_shape(shape_class: Type[RateShape]) -> Type[RateShape]:
    """Register a shape under its ``name`` (also usable as a decorator)."""
    return SHAPE_REGISTRY.register(shape_class)


def available_shapes() -> List[str]:
    return SHAPE_REGISTRY.available()


@register_shape
@dataclass(frozen=True)
class ConstantShape(RateShape):
    """The same multiplier everywhere; ``level=1.0`` is the unshaped constant rate."""

    name = "constant"

    level_value: float = 1.0
    kind: str = field(default="constant", init=False)

    def __post_init__(self) -> None:
        if self.level_value < 0:
            raise ValueError("constant shape level_value must be >= 0")

    def level(self, t: float) -> float:
        return self.level_value

    @property
    def max_level(self) -> float:
        return self.level_value

    @property
    def is_identity(self) -> bool:
        """True for the multiplier-of-one shape (bit-for-bit the unshaped arrivals)."""
        return self.level_value == 1.0


@register_shape
@dataclass(frozen=True)
class RampShape(RateShape):
    """Linear ``start_level`` -> ``end_level`` over ``ramp_s``, then hold."""

    name = "ramp"

    start_level: float = 1.0
    end_level: float = 2.0
    ramp_s: float = 60.0
    kind: str = field(default="ramp", init=False)

    def __post_init__(self) -> None:
        if self.start_level < 0 or self.end_level < 0:
            raise ValueError("ramp levels must be >= 0")
        if max(self.start_level, self.end_level) <= 0:
            raise ValueError("ramp must reach a positive level")
        if self.ramp_s <= 0:
            raise ValueError("ramp ramp_s must be > 0")

    def level(self, t: float) -> float:
        if t <= 0:
            return self.start_level
        if t >= self.ramp_s:
            return self.end_level
        return self.start_level + (self.end_level - self.start_level) * t / self.ramp_s

    @property
    def max_level(self) -> float:
        return max(self.start_level, self.end_level)

    def next_positive(self, t: float) -> Optional[float]:
        if self.level(t) > 0:
            return t
        # The ramp is linear: a zero level either rises immediately (zero
        # start, positive end) or has decayed for good (zero end).
        if self.end_level > 0:
            return t
        return None


@register_shape
@dataclass(frozen=True)
class SquareWaveShape(RateShape):
    """``base_level`` with a repeating ``burst_level`` window each period.

    The burst occupies ``[burst_start_s, burst_start_s + burst_s)`` of every
    ``period_s``; a single square burst is one period of the wave (e.g.
    ``period_s=60, burst_start_s=20, burst_s=20`` over a 60 s plan).
    """

    name = "square-wave"

    base_level: float = 1.0
    burst_level: float = 4.0
    period_s: float = 60.0
    burst_start_s: float = 20.0
    burst_s: float = 20.0
    kind: str = field(default="square-wave", init=False)

    def __post_init__(self) -> None:
        if self.base_level < 0 or self.burst_level < 0:
            raise ValueError("square-wave levels must be >= 0")
        if max(self.base_level, self.burst_level) <= 0:
            raise ValueError("square-wave must reach a positive level")
        if self.period_s <= 0:
            raise ValueError("square-wave period_s must be > 0")
        if self.burst_s <= 0:
            raise ValueError("square-wave burst_s must be > 0")
        if self.burst_start_s < 0 or self.burst_start_s + self.burst_s > self.period_s:
            raise ValueError(
                "square-wave burst window must fit inside one period "
                f"([{self.burst_start_s}, {self.burst_start_s + self.burst_s}) "
                f"vs period {self.period_s})"
            )

    def _phase(self, t: float) -> float:
        return t % self.period_s

    def level(self, t: float) -> float:
        phase = self._phase(t)
        if self.burst_start_s <= phase < self.burst_start_s + self.burst_s:
            return self.burst_level
        return self.base_level

    @property
    def max_level(self) -> float:
        return max(self.base_level, self.burst_level)

    def next_change(self, t: float) -> Optional[float]:
        cycle = t - self._phase(t)
        # The next discontinuity is this cycle's burst start or end, or the
        # next cycle's burst start -- the last is always strictly after ``t``.
        return min(
            boundary
            for boundary in (
                cycle + self.burst_start_s,
                cycle + self.burst_start_s + self.burst_s,
                cycle + self.period_s + self.burst_start_s,
            )
            if boundary > t
        )


@register_shape
@dataclass(frozen=True)
class DiurnalShape(RateShape):
    """Sinusoid ``mean_level + amplitude * sin(2π (t + phase_s) / period_s)``.

    ``amplitude <= mean_level`` keeps the rate non-negative everywhere.
    """

    name = "diurnal"

    mean_level: float = 1.0
    amplitude: float = 0.5
    period_s: float = 60.0
    phase_s: float = 0.0
    kind: str = field(default="diurnal", init=False)

    def __post_init__(self) -> None:
        if self.mean_level <= 0:
            raise ValueError("diurnal mean_level must be > 0")
        if not 0 < self.amplitude <= self.mean_level:
            raise ValueError(
                "diurnal amplitude must be in (0, mean_level] "
                "(the rate must stay non-negative)"
            )
        if self.period_s <= 0:
            raise ValueError("diurnal period_s must be > 0")

    def level(self, t: float) -> float:
        return self.mean_level + self.amplitude * math.sin(
            2.0 * math.pi * (t + self.phase_s) / self.period_s
        )

    @property
    def max_level(self) -> float:
        return self.mean_level + self.amplitude

    def next_positive(self, t: float) -> Optional[float]:
        # amplitude <= mean_level keeps the sinusoid non-negative, touching
        # zero only at isolated trough instants -- always recoverable.
        return t


@register_shape
@dataclass(frozen=True)
class TraceShape(RateShape):
    """Piecewise-constant replay of a recorded rate timeline.

    ``levels[i]`` holds on ``[times[i], times[i+1])``; the final level holds
    forever.  ``times`` must start at 0 and increase strictly, so the shape
    is defined on the whole timeline.
    """

    name = "trace"

    times: Tuple[float, ...] = (0.0,)
    levels: Tuple[float, ...] = (1.0,)
    kind: str = field(default="trace", init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.times, tuple):
            object.__setattr__(self, "times", tuple(self.times))
        if not isinstance(self.levels, tuple):
            object.__setattr__(self, "levels", tuple(self.levels))
        if not self.times or len(self.times) != len(self.levels):
            raise ValueError("trace needs matching, non-empty times and levels")
        if self.times[0] != 0.0:
            raise ValueError("trace times must start at 0.0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trace times must increase strictly")
        if any(level < 0 for level in self.levels):
            raise ValueError("trace levels must be >= 0")
        if max(self.levels) <= 0:
            raise ValueError("trace must reach a positive level")

    def level(self, t: float) -> float:
        index = bisect.bisect_right(self.times, t) - 1
        return self.levels[max(index, 0)]

    @property
    def max_level(self) -> float:
        return max(self.levels)

    def next_change(self, t: float) -> Optional[float]:
        index = bisect.bisect_right(self.times, t)
        if index >= len(self.times):
            return None
        return self.times[index]


@register_shape
@dataclass(frozen=True)
class PiecewiseShape(RateShape):
    """``(duration_s, shape)`` segments composed back to back.

    Each segment's child shape runs on its own local clock (``t`` relative
    to the segment start); after the final segment ends, the final shape
    keeps running on that local clock.  Zero-rate segments
    (``ConstantShape(level_value=0.0)``) model silences between bursts.
    """

    name = "piecewise"

    segments: Tuple[Tuple[float, RateShape], ...] = ()
    kind: str = field(default="piecewise", init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple) or any(
            not isinstance(entry, tuple) for entry in self.segments
        ):
            object.__setattr__(
                self, "segments", tuple(tuple(entry) for entry in self.segments)
            )
        if not self.segments:
            raise ValueError("piecewise shape needs at least one segment")
        for duration, shape in self.segments:
            if duration <= 0:
                raise ValueError("piecewise segment durations must be > 0")
            if not isinstance(shape, RateShape):
                raise ValueError("piecewise segments must hold RateShape instances")
            if isinstance(shape, PiecewiseShape):
                raise ValueError("piecewise segments cannot nest piecewise shapes")
        if self.max_level <= 0:
            raise ValueError("piecewise shape must reach a positive level")

    def _locate(self, t: float) -> Tuple[RateShape, float, float]:
        """(shape, local time, segment start) covering time ``t``."""
        start = 0.0
        for duration, shape in self.segments[:-1]:
            if t < start + duration:
                return shape, t - start, start
            start += duration
        return self.segments[-1][1], t - start, start

    def level(self, t: float) -> float:
        shape, local, _ = self._locate(max(t, 0.0))
        return shape.level(local)

    @property
    def max_level(self) -> float:
        return max(shape.max_level for _, shape in self.segments)

    def next_change(self, t: float) -> Optional[float]:
        shape, local, start = self._locate(max(t, 0.0))
        child = shape.next_change(local)
        boundaries: List[float] = []
        if child is not None:
            boundaries.append(start + child)
        # Segment boundaries are discontinuities in their own right.
        edge = 0.0
        for duration, _ in self.segments:
            edge += duration
            if edge > t:
                boundaries.append(edge)
                break
        if not boundaries:
            return None
        return min(boundaries)


def build_shape(name: str, **params: Any) -> RateShape:
    """Instantiate a registered shape by (case-insensitive) name."""
    key = name.lower()
    if key not in RATE_SHAPES:
        raise ValueError(f"unknown rate shape {name!r}; known: {available_shapes()}")
    return RATE_SHAPES[key](**params)


# ---------------------------------------------------------------------------
# Deterministic shaped traces (shared by loadgen and the forecaster tests)
# ---------------------------------------------------------------------------


def iter_deterministic_arrivals(
    shape: RateShape,
    qps: float = 1.0,
    stop_before: Optional[float] = None,
) -> Iterator[float]:
    """Yield deterministic arrival times at instantaneous rate ``qps * level(t)``.

    First-order rate integration: each arrival advances the clock by the
    current inter-arrival gap ``1 / rate(t)``.  Zero-rate spans are skipped
    to the shape's next step discontinuity; a zero-rate span with no
    upcoming discontinuity ends the stream (the rate never recovers), as
    does one that stays zero across ``_MAX_ZERO_RATE_STEPS`` discontinuities
    in a row.  ``stop_before`` stops generation once the clock reaches it
    -- the final yielded arrival may land just past it, exactly like the
    historical trace generators -- while ``None`` streams forever (callers
    truncate).

    This is the single integrator behind both :func:`deterministic_trace`
    (offline traces) and the shaped ``uniform`` arrival plans, so boundary
    and zero-rate semantics cannot drift between them.
    """
    t = 0.0
    zero_steps = 0
    while stop_before is None or t < stop_before:
        rate = qps * shape.level(t)
        if rate <= 0:
            boundary = shape.next_change(t)
            zero_steps += 1
            if (
                boundary is None
                or boundary <= t
                or (stop_before is not None and boundary >= stop_before)
                or zero_steps > _MAX_ZERO_RATE_STEPS
            ):
                return
            t = boundary
            continue
        zero_steps = 0
        t += 1.0 / rate
        yield t


def deterministic_trace(
    shape: RateShape,
    duration_s: float,
    qps: float = 1.0,
    max_arrivals: Optional[int] = None,
) -> List[float]:
    """Deterministic arrival times over ``[0, duration_s]`` (see the iterator).

    The generator the forecaster accuracy tests have always pinned their
    synthetic ramp/burst/diurnal traces on: ``t += 1 / rate(t)`` while the
    clock stays inside the span (the final arrival may land just past it).
    """
    if duration_s <= 0:
        raise ValueError("deterministic_trace duration_s must be > 0")
    if qps <= 0:
        raise ValueError("deterministic_trace qps must be > 0")
    arrivals = iter_deterministic_arrivals(shape, qps, stop_before=duration_s)
    if max_arrivals is None:
        return list(arrivals)
    import itertools

    return list(itertools.islice(arrivals, max_arrivals))
