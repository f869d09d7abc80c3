"""Load generation for the agent serving experiments (paper Section IV-C).

The paper drives its serving system with requests sampled uniformly from the
benchmark and arriving according to a Poisson process at a target QPS; this
module produces those arrival schedules and the accompanying task samples.
:func:`mixture_plan` generalises the single-workload generators to the
datacenter scenario (paper Table IV): one arrival process whose requests are
drawn from a weighted mixture of traffic classes (e.g. chatbot + agent), each
request tagged with its class so pool-aware routers can steer it.

Time-varying traffic programs build on the same generators:
:func:`shaped_plan` modulates a Poisson process by a
:class:`~repro.serving.shapes.RateShape` via Lewis thinning (candidate
arrivals at the peak rate, accepted with probability ``level(t)/max_level``)
or a deterministic process by rate integration, and :func:`mixture_plan`
accepts an overall shape plus per-class shapes so each traffic class can
burst independently (per-class shaped processes superposed by arrival time).
The identity shape reproduces the unshaped generators bit-for-bit: thinning
at a constant level-1 envelope accepts every candidate, and the acceptance
draws come from a separate substream, so the arrival times and task picks
are untouched.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.serving.shapes import ConstantShape, RateShape, iter_deterministic_arrivals
from repro.serving.tenants import Tenant, TenantPopulation, TenantSpec
from repro.sim.distributions import DeterministicArrivals, PoissonArrivals, RandomStream
from repro.workloads.base import Task, Workload

#: Safety cap on thinning candidates per accepted arrival (a degenerate shape
#: that is almost always near zero would otherwise spin unboundedly).
_MAX_REJECTS_PER_ARRIVAL = 100_000


@dataclass(frozen=True)
class ArrivalPlan:
    """A schedule of (arrival_time, task) pairs for one serving run.

    ``traffic_classes`` optionally labels each arrival with the traffic class
    it was sampled from (mixture plans); single-workload plans leave it
    ``None``.  ``tenants`` optionally labels each arrival with the
    :class:`~repro.serving.tenants.Tenant` that issued it (``None`` for
    untenanted plans, and per-entry ``None`` for arrivals of untenanted
    classes inside a partially tenanted mixture).
    """

    arrival_times: List[float]
    tasks: List[Task]
    traffic_classes: Optional[List[str]] = None
    tenants: Optional[List[Optional[Tenant]]] = None

    def __post_init__(self) -> None:
        if len(self.arrival_times) != len(self.tasks):
            raise ValueError("arrival_times and tasks must have the same length")
        if self.traffic_classes is not None and len(self.traffic_classes) != len(self.tasks):
            raise ValueError("traffic_classes must label every task")
        if self.tenants is not None and len(self.tenants) != len(self.tasks):
            raise ValueError("tenants must label every task")
        if any(b < a for a, b in zip(self.arrival_times, self.arrival_times[1:])):
            raise ValueError("arrival times must be non-decreasing")

    def labels(self) -> List[Optional[str]]:
        """Per-arrival traffic-class labels (``None`` s for unlabelled plans)."""
        if self.traffic_classes is None:
            return [None] * len(self.tasks)
        return list(self.traffic_classes)

    def tenant_labels(self) -> List[Optional[Tenant]]:
        """Per-arrival tenant identities (``None`` s for untenanted plans)."""
        if self.tenants is None:
            return [None] * len(self.tasks)
        return list(self.tenants)

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def duration(self) -> float:
        return self.arrival_times[-1] if self.arrival_times else 0.0

    @property
    def offered_qps(self) -> float:
        if not self.arrival_times or self.duration <= 0:
            return 0.0
        return len(self.arrival_times) / self.duration


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


def poisson_plan(
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


def uniform_plan(
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


def shaped_plan(
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
            return poisson_plan(
                workload, qps, num_requests, stream, task_pool_size, tenants=tenants
            )
        if process == "uniform":
            return uniform_plan(
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


def mixture_plan(
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
