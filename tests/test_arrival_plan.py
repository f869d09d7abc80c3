"""One arrival generator: ``arrival_plan`` against the generators it replaced.

:func:`~repro.serving.loadgen.arrival_plan` replaced four generators:
``poisson_plan``, ``uniform_plan`` and ``shaped_plan`` for one workload,
and ``mixture_plan`` for weighted traffic classes.  Those four are kept
here verbatim as the reference, and property tests check field for field
that the one generator reproduces them:

* one unlabelled class equals the single-workload generators (arrival
  times, tasks, an unlabelled ``traffic_classes`` column, tenants) across
  process x shape x ``duration_s`` x tenants;
* two or three labelled classes equal ``mixture_plan`` in every case but
  one: an unshaped ``uniform`` mixture now picks tasks round-robin per
  class (as every other ``uniform`` plan does) instead of at random, which
  a dedicated test pins.

The reference shares the package's shapes, deterministic integrator,
tenant populations and random streams; only the plan generators are
frozen here.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serving.loadgen import ArrivalPlan, arrival_plan
from repro.serving.shapes import (
    ConstantShape,
    PiecewiseShape,
    RampShape,
    RateShape,
    SquareWaveShape,
    TraceShape,
    iter_deterministic_arrivals,
)
from repro.serving.tenants import Tenant, TenantPopulation, TenantSpec
from repro.sim.distributions import DeterministicArrivals, PoissonArrivals, RandomStream
from repro.workloads import create_workload
from repro.workloads.base import Task, Workload

# ---------------------------------------------------------------------------
# Reference: the generators arrival_plan replaced, verbatim
# ---------------------------------------------------------------------------

#: Safety cap on thinning candidates per accepted arrival.
_MAX_REJECTS_PER_ARRIVAL = 100_000


def _sampled_tenants(
    tenants: Optional[TenantSpec],
    count: int,
    stream: Optional[RandomStream],
    substream: str = "tenants",
) -> Optional[List[Tenant]]:
    """Per-arrival tenant draws from a dedicated substream (``None`` = untenanted).

    Tenant draws come from their own substream, created only when a tenant
    spec is present, so untenanted plans consume exactly the same random
    numbers as before tenants existed (bit-for-bit golden pins hold).
    """
    if tenants is None:
        return None
    if stream is None:
        raise ValueError("tenanted plans need a RandomStream to draw tenants from")
    from repro.serving.tenants import sample_tenants

    return sample_tenants(tenants, count, stream.substream(substream))


def reference_poisson_plan(
    workload: Workload,
    qps: float,
    num_requests: int,
    stream: RandomStream,
    task_pool_size: int = 64,
    tenants: Optional[TenantSpec] = None,
) -> ArrivalPlan:
    """Poisson arrivals at ``qps`` with tasks sampled (with replacement) from a pool."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    pool = workload.sample_tasks(max(task_pool_size, 1))
    arrivals = PoissonArrivals(qps, stream.substream("arrivals")).arrival_times(num_requests)
    pick_stream = stream.substream("task-pick")
    tasks = [pool[pick_stream.integers(0, len(pool))] for _ in range(num_requests)]
    return ArrivalPlan(
        arrival_times=arrivals,
        tasks=tasks,
        tenants=_sampled_tenants(tenants, num_requests, stream),
    )


def reference_uniform_plan(
    workload: Workload,
    qps: float,
    num_requests: int,
    task_pool_size: int = 64,
    stream: RandomStream | None = None,
    tenants: Optional[TenantSpec] = None,
) -> ArrivalPlan:
    """Evenly spaced arrivals (deterministic), useful for calibration tests."""
    pool = workload.sample_tasks(max(task_pool_size, 1))
    arrivals = DeterministicArrivals(qps).arrival_times(num_requests)
    tasks = [pool[index % len(pool)] for index in range(num_requests)]
    return ArrivalPlan(
        arrival_times=arrivals,
        tasks=tasks,
        tenants=_sampled_tenants(tenants, num_requests, stream),
    )


# ---------------------------------------------------------------------------
# Shaped (time-varying) arrival streams
# ---------------------------------------------------------------------------


class _ProductShape(RateShape):
    """Pointwise product of shapes (overall program x per-class modulation)."""

    def __init__(self, *shapes: RateShape):
        self.shapes = [shape for shape in shapes if shape is not None]

    def level(self, t: float) -> float:
        value = 1.0
        for shape in self.shapes:
            value *= shape.level(t)
        return value

    @property
    def max_level(self) -> float:
        value = 1.0
        for shape in self.shapes:
            value *= shape.max_level
        return value

    def next_change(self, t: float) -> Optional[float]:
        boundaries = [
            boundary
            for boundary in (shape.next_change(t) for shape in self.shapes)
            if boundary is not None and boundary > t
        ]
        return min(boundaries) if boundaries else None


def _is_identity(shape: Optional[RateShape]) -> bool:
    return shape is None or (isinstance(shape, ConstantShape) and shape.is_identity)


def _thinned_arrivals(
    shape: RateShape,
    qps: float,
    gap_stream: RandomStream,
    accept_stream: RandomStream,
) -> Iterator[float]:
    """Poisson arrivals at ``qps * level(t)`` by Lewis thinning.

    Candidates arrive at the peak rate ``qps * max_level`` and are accepted
    with probability ``level(t) / max_level``.  A level-1 constant shape
    accepts every candidate without touching the acceptance stream, which is
    what keeps unshaped plans bit-for-bit identical.

    Zero-rate spans are not spun through candidate by candidate: the
    Poisson process is memoryless, so when a candidate lands on a dead span
    the clock restarts at the shape's :meth:`~RateShape.next_positive` time
    (and a rate that never recovers ends the stream instead of stalling).
    """
    peak = qps * shape.max_level
    if peak <= 0:
        raise ValueError("shaped arrivals need qps * max_level > 0")
    t = 0.0
    rejects = 0
    while True:
        t += gap_stream.exponential(1.0 / peak)
        probability = qps * shape.level(t) / peak
        if probability <= 0.0:
            resume = shape.next_positive(t)
            if resume is None:
                return
            if resume > t:
                t = resume
                continue
        if probability >= 1.0 or accept_stream.random() < probability:
            rejects = 0
            yield t
        else:
            rejects += 1
            if rejects > _MAX_REJECTS_PER_ARRIVAL:
                raise ValueError(
                    "shaped arrival generation stalled: the shape's level is "
                    "negligible relative to its max_level for too long"
                )


def _collect_arrivals(
    arrivals: Iterator[float],
    num_requests: int,
    duration_s: Optional[float],
) -> List[float]:
    """Up to ``num_requests`` arrival times, stopping at ``duration_s`` if set."""
    times: List[float] = []
    for t in arrivals:
        if duration_s is not None and t > duration_s:
            break
        times.append(t)
        if len(times) >= num_requests:
            break
    return times


def reference_shaped_plan(
    workload: Workload,
    qps: float,
    shape: RateShape,
    num_requests: int,
    stream: RandomStream,
    task_pool_size: int = 64,
    process: str = "poisson",
    duration_s: Optional[float] = None,
    tenants: Optional[TenantSpec] = None,
) -> ArrivalPlan:
    """One workload served by a shaped arrival process (a traffic program).

    The effective arrival rate at time ``t`` is ``qps * shape.level(t)``:
    Poisson processes are modulated by thinning, ``uniform`` (deterministic)
    processes by rate integration.  ``duration_s`` switches the plan from
    count semantics (exactly ``num_requests`` arrivals) to span semantics
    (every arrival inside ``[0, duration_s]``, with ``num_requests`` as a
    safety cap).  The identity shape delegates to the unshaped generators,
    so ``ConstantShape(1.0)`` plans are bit-for-bit the legacy plans.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if not isinstance(shape, RateShape):
        raise ValueError(f"shaped_plan needs a RateShape, got {shape!r}")
    if duration_s is not None and duration_s <= 0:
        raise ValueError("duration_s must be > 0 (or None for count semantics)")
    if _is_identity(shape) and duration_s is None:
        if process == "poisson":
            return reference_poisson_plan(
                workload, qps, num_requests, stream, task_pool_size, tenants=tenants
            )
        if process == "uniform":
            return reference_uniform_plan(
                workload, qps, num_requests, task_pool_size, stream, tenants=tenants
            )
        raise ValueError(f"shaped plans support poisson/uniform, not {process!r}")
    if process == "poisson":
        arrivals = _thinned_arrivals(
            shape, qps, stream.substream("arrivals"), stream.substream("thinning")
        )
    elif process == "uniform":
        arrivals = iter_deterministic_arrivals(shape, qps, stop_before=duration_s)
    else:
        raise ValueError(f"shaped plans support poisson/uniform, not {process!r}")
    times = _collect_arrivals(arrivals, num_requests, duration_s)
    if not times:
        raise ValueError(
            "shaped plan generated no arrivals: the shape stays at zero rate "
            "for the whole plan span"
        )
    pool = workload.sample_tasks(max(task_pool_size, 1))
    if process == "poisson":
        pick_stream = stream.substream("task-pick")
        tasks = [pool[pick_stream.integers(0, len(pool))] for _ in times]
    else:
        tasks = [pool[index % len(pool)] for index in range(len(times))]
    return ArrivalPlan(
        arrival_times=times,
        tasks=tasks,
        tenants=_sampled_tenants(tenants, len(times), stream),
    )


#: One traffic class of a mixture: (label, workload, weight[, shape[, tenants]]).
MixtureComponent = Union[
    Tuple[str, Workload, float],
    Tuple[str, Workload, float, Optional[RateShape]],
    Tuple[str, Workload, float, Optional[RateShape], Optional[TenantSpec]],
]


class _MixtureTenants:
    """Lazy per-class tenant samplers for a mixture plan.

    Each tenanted class gets its own :class:`TenantPopulation` and
    ``tenants/{label}`` substream, created on first use, so untenanted
    classes never touch the random state and the plan's tenant column is
    ``None`` when no class is tenanted at all.
    """

    def __init__(
        self,
        stream: RandomStream,
        specs: Dict[str, Optional[TenantSpec]],
    ):
        self._stream = stream
        self._specs = specs
        self._populations: Dict[str, TenantPopulation] = {}
        self._streams: Dict[str, RandomStream] = {}
        self.any_tenanted = any(spec is not None for spec in specs.values())

    def sample(self, label: str) -> Optional[Tenant]:
        spec = self._specs[label]
        if spec is None:
            return None
        population = self._populations.get(label)
        if population is None:
            population = TenantPopulation(spec)
            self._populations[label] = population
            self._streams[label] = self._stream.substream(f"tenants/{label}")
        return population.sample(self._streams[label])

    def column(self, drawn: List[Optional[Tenant]]) -> Optional[List[Optional[Tenant]]]:
        return drawn if self.any_tenanted else None


def reference_mixture_plan(
    components: Sequence[MixtureComponent],
    qps: float,
    num_requests: int,
    stream: RandomStream,
    task_pool_size: int = 64,
    process: str = "poisson",
    shape: Optional[RateShape] = None,
    duration_s: Optional[float] = None,
    tenants: Optional[TenantSpec] = None,
) -> ArrivalPlan:
    """One arrival process over a weighted mixture of traffic classes.

    ``components`` is a sequence of ``(label, workload, weight)``,
    ``(label, workload, weight, shape)`` or ``(label, workload, weight,
    shape, tenants)``; every arrival is tagged with the class label so the
    cluster can route it to the right pool.  A per-class :class:`TenantSpec`
    overrides the plan-level ``tenants`` default for that class; each
    tenanted class draws from its own user population on its own substream.

    Without shaping (the legacy path, bit-for-bit preserved): one arrival
    process at ``qps``, each arrival drawing its traffic class by weight and
    then a task (with replacement) from that class's pool.

    With shaping (an overall ``shape`` and/or per-class shapes): each class
    becomes its own shaped process at rate
    ``qps * normalized_weight * shape.level(t) * class_shape.level(t)``, so
    classes burst independently (the Table IV scenario: agent traffic
    spiking over a steady chat floor); the per-class processes are superposed
    by arrival time into one plan.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if not components:
        raise ValueError("mixture needs at least one traffic class")
    if duration_s is not None and duration_s <= 0:
        raise ValueError("duration_s must be > 0 (or None for count semantics)")
    normalized = [
        (entry[0], entry[1], entry[2], entry[3] if len(entry) > 3 else None)
        for entry in components
    ]
    tenant_specs: Dict[str, Optional[TenantSpec]] = {
        entry[0]: (entry[4] if len(entry) > 4 and entry[4] is not None else tenants)
        for entry in components
    }
    total_weight = sum(weight for _, _, weight, _ in normalized)
    if total_weight <= 0:
        raise ValueError("mixture weights must sum to > 0")
    if process not in ("poisson", "uniform"):
        raise ValueError(f"mixture plans support poisson/uniform, not {process!r}")
    labels = [label for label, _, _, _ in normalized]
    mixture_tenants = _MixtureTenants(stream, tenant_specs)
    pools: Dict[str, List[Task]] = {
        label: workload.sample_tasks(max(task_pool_size, 1))
        for label, workload, _, _ in normalized
    }
    unshaped = (
        _is_identity(shape)
        and all(_is_identity(class_shape) for _, _, _, class_shape in normalized)
        and duration_s is None
    )
    if unshaped:
        # Legacy single-process path (golden-pinned): one arrival stream,
        # class drawn by weight per arrival.
        probabilities = [weight / total_weight for _, _, weight, _ in normalized]
        if process == "poisson":
            arrivals = PoissonArrivals(qps, stream.substream("arrivals")).arrival_times(
                num_requests
            )
        else:
            arrivals = DeterministicArrivals(qps).arrival_times(num_requests)
        class_stream = stream.substream("class-pick")
        pick_streams = {
            label: stream.substream(f"task-pick/{label}") for label in labels
        }
        chosen: List[str] = []
        tasks: List[Task] = []
        drawn: List[Optional[Tenant]] = []
        for _ in range(num_requests):
            label = class_stream.choice(labels, p=probabilities)
            pool = pools[label]
            tasks.append(pool[pick_streams[label].integers(0, len(pool))])
            chosen.append(label)
            drawn.append(mixture_tenants.sample(label))
        return ArrivalPlan(
            arrival_times=arrivals,
            tasks=tasks,
            traffic_classes=chosen,
            tenants=mixture_tenants.column(drawn),
        )
    # Shaped mixture: superposed per-class shaped processes.  Each class has
    # its own substreams so adding/reshaping one class never perturbs the
    # arrival times of another.
    merged: List[Tuple[float, int]] = []
    heapq.heapify(merged)
    streams: List[Iterator[float]] = []
    for index, (label, _, weight, class_shape) in enumerate(normalized):
        class_rate = qps * weight / total_weight
        program = _ProductShape(shape, class_shape)
        if process == "poisson":
            arrivals = _thinned_arrivals(
                program,
                class_rate,
                stream.substream(f"arrivals/{label}"),
                stream.substream(f"thinning/{label}"),
            )
        else:
            arrivals = iter_deterministic_arrivals(
                program, class_rate, stop_before=duration_s
            )
        streams.append(arrivals)
        first = next(arrivals, None)
        if first is not None:
            heapq.heappush(merged, (first, index))
    pick_streams = {
        label: stream.substream(f"task-pick/{label}") for label in labels
    }
    round_robin = [0] * len(normalized)
    times: List[float] = []
    tasks = []
    chosen = []
    drawn = []
    while merged and len(times) < num_requests:
        t, index = heapq.heappop(merged)
        if duration_s is not None and t > duration_s:
            # Streams yield non-decreasing times: once the earliest pending
            # arrival is past the span, every later one is too.
            break
        label = labels[index]
        pool = pools[label]
        if process == "poisson":
            tasks.append(pool[pick_streams[label].integers(0, len(pool))])
        else:
            tasks.append(pool[round_robin[index] % len(pool)])
            round_robin[index] += 1
        times.append(t)
        chosen.append(label)
        drawn.append(mixture_tenants.sample(label))
        upcoming = next(streams[index], None)
        if upcoming is not None:
            heapq.heappush(merged, (upcoming, index))
    if not times:
        raise ValueError(
            "shaped mixture generated no arrivals: every class stays at zero "
            "rate for the whole plan span"
        )
    return ArrivalPlan(
        arrival_times=times,
        tasks=tasks,
        traffic_classes=chosen,
        tenants=mixture_tenants.column(drawn),
    )


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

#: The shapes each property draws from, by name (``None`` = no shape).
SHAPES: Dict[str, Optional[RateShape]] = {
    "none": None,
    "identity": ConstantShape(),
    "square-wave": SquareWaveShape(
        base_level=0.5, burst_level=3.0, period_s=12.0, burst_start_s=4.0,
        burst_s=4.0,
    ),
    "ramp": RampShape(start_level=0.2, end_level=2.0, ramp_s=20.0),
    "dead-tail trace": TraceShape(times=(0.0, 8.0), levels=(1.0, 0.0)),
    "silent window": PiecewiseShape(
        segments=(
            (4.0, ConstantShape(level_value=1.0)),
            (4.0, ConstantShape(level_value=0.0)),
            (4.0, ConstantShape(level_value=1.0)),
        )
    ),
}
SHAPE_NAMES = sorted(SHAPES)

#: (label, workload) of the classes a labelled plan draws from, in order.
CLASSES = (("chat", "sharegpt"), ("agent", "math"), ("batch", "humaneval"))


def _outcome(generator, *args, **kwargs):
    """Every field of the generated plan, or the error it raised."""
    try:
        plan = generator(*args, **kwargs)
    except ValueError:
        return "ValueError"
    return plan.arrival_times, plan.tasks, plan.traffic_classes, plan.tenants


def _unshaped(*shapes: Optional[RateShape]) -> bool:
    return all(
        shape is None or (isinstance(shape, ConstantShape) and shape.is_identity)
        for shape in shapes
    )


class TestOneUnlabelledClass:
    @settings(max_examples=300, deadline=None)
    @given(
        process=st.sampled_from(["poisson", "uniform"]),
        shape=st.sampled_from(SHAPE_NAMES),
        duration_s=st.sampled_from([None, 6.0, 15.0]),
        tenanted=st.booleans(),
        qps=st.sampled_from([0.5, 2.0, 5.0]),
        num_requests=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_the_single_workload_generators(
        self, process, shape, duration_s, tenanted, qps, num_requests, seed
    ):
        kwargs = dict(
            qps=qps,
            num_requests=num_requests,
            task_pool_size=8,
            process=process,
            duration_s=duration_s,
            tenants=TenantSpec(num_users=50, skew=1.2) if tenanted else None,
        )
        # The runner handed shaped_plan the identity for an unset shape, and
        # shaped_plan handed the identity to poisson_plan / uniform_plan.
        expected = _outcome(
            reference_shaped_plan,
            create_workload("sharegpt", seed=seed),
            shape=SHAPES[shape] if SHAPES[shape] is not None else ConstantShape(),
            stream=RandomStream(seed, "plan"),
            **kwargs,
        )
        actual = _outcome(
            arrival_plan,
            [(None, create_workload("sharegpt", seed=seed), 1.0)],
            shape=SHAPES[shape],
            stream=RandomStream(seed, "plan"),
            **kwargs,
        )
        assert actual == expected
        if actual != "ValueError":
            assert actual[2] is None


class TestLabelledClasses:
    @settings(max_examples=300, deadline=None)
    @given(
        process=st.sampled_from(["poisson", "uniform"]),
        shape=st.sampled_from(SHAPE_NAMES),
        classes=st.lists(
            st.tuples(
                st.sampled_from(SHAPE_NAMES),
                st.sampled_from([0.2, 1.0, 2.5]),
                st.booleans(),
            ),
            min_size=2,
            max_size=3,
        ),
        duration_s=st.sampled_from([None, 6.0, 15.0]),
        tenanted=st.booleans(),
        qps=st.sampled_from([0.5, 2.0, 5.0]),
        num_requests=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_match_the_mixture_generator(
        self, process, shape, classes, duration_s, tenanted, qps, num_requests, seed
    ):
        class_shapes = [SHAPES[name] for name, _, _ in classes]
        # The one intended change: unshaped uniform mixtures (pinned below).
        assume(
            process == "poisson"
            or duration_s is not None
            or not _unshaped(SHAPES[shape], *class_shapes)
        )

        def components():
            return [
                (
                    label,
                    create_workload(workload, seed=seed),
                    weight,
                    class_shape,
                    TenantSpec(num_users=20 + index, skew=1.1) if own_tenants else None,
                )
                for index, ((label, workload), class_shape, (_, weight, own_tenants))
                in enumerate(zip(CLASSES, class_shapes, classes))
            ]

        kwargs = dict(
            qps=qps,
            num_requests=num_requests,
            task_pool_size=8,
            process=process,
            shape=SHAPES[shape],
            duration_s=duration_s,
            tenants=TenantSpec(num_users=50, skew=1.2) if tenanted else None,
        )
        expected = _outcome(
            reference_mixture_plan, components(), stream=RandomStream(seed, "m"), **kwargs
        )
        actual = _outcome(
            arrival_plan, components(), stream=RandomStream(seed, "m"), **kwargs
        )
        assert actual == expected

    def test_unshaped_uniform_mixture_cycles_round_robin_per_class(self):
        def components():
            return [
                ("chat", create_workload("sharegpt", seed=0), 0.5),
                ("agent", create_workload("math", seed=0), 0.5),
            ]

        kwargs = dict(qps=2.0, num_requests=24, task_pool_size=3, process="uniform")
        plan = arrival_plan(components(), stream=RandomStream(0, "rr"), **kwargs)
        reference = reference_mixture_plan(
            components(), stream=RandomStream(0, "rr"), **kwargs
        )
        # Arrival times and class draws are unchanged; only task picks moved.
        assert plan.arrival_times == reference.arrival_times
        assert plan.traffic_classes == reference.traffic_classes
        for label, workload, _ in components():
            pool = workload.sample_tasks(3)
            picked = [
                task
                for task, picked_label in zip(plan.tasks, plan.traffic_classes)
                if picked_label == label
            ]
            assert len(picked) > len(pool)
            assert picked == [pool[index % len(pool)] for index in range(len(picked))]

    def test_unlabelled_class_must_be_alone(self):
        workload = create_workload("sharegpt", seed=0)
        with pytest.raises(ValueError, match="unlabelled"):
            arrival_plan(
                [(None, workload, 1.0), ("chat", workload, 1.0)],
                qps=1.0, num_requests=4, stream=RandomStream(0, "x"),
            )
