"""Load generation for the agent serving experiments (paper Section IV-C).

The paper drives its serving system with requests sampled uniformly from the
benchmark and arriving according to a Poisson process at a target QPS;
:func:`arrival_plan` produces those arrival schedules and the accompanying
task samples.  A plan serves one or more traffic classes: a single-workload
run is the one unlabelled class ``[(None, workload, 1.0)]``, and the
datacenter scenario (paper Table IV) is a weighted mixture of labelled
classes (e.g. chatbot + agent), each request tagged with its class so
pool-aware routers can steer it.

Time-varying traffic programs modulate the same plans: an overall
:class:`~repro.serving.shapes.RateShape` plus optional per-class shapes turn
each class into its own shaped process -- Poisson processes by Lewis
thinning (candidate arrivals at the peak rate, accepted with probability
``level(t)/max_level``), deterministic ones by rate integration -- and the
per-class processes are superposed by arrival time, so each class bursts
independently.
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

    ``traffic_classes`` labels each arrival with the traffic class it was
    sampled from; plans of the one unlabelled class leave it ``None``.
    ``tenants`` optionally labels each arrival with the
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


# ---------------------------------------------------------------------------
# Shaped (time-varying) arrival processes
# ---------------------------------------------------------------------------


class _ProductShape(RateShape):
    """Pointwise product of the overall program and one class's modulation."""

    def __init__(self, outer: RateShape, inner: RateShape):
        self.outer = outer
        self.inner = inner

    def level(self, t: float) -> float:
        return self.outer.level(t) * self.inner.level(t)

    @property
    def max_level(self) -> float:
        return self.outer.max_level * self.inner.max_level

    def next_change(self, t: float) -> Optional[float]:
        boundaries = [
            boundary
            for boundary in (self.outer.next_change(t), self.inner.next_change(t))
            if boundary is not None and boundary > t
        ]
        return min(boundaries) if boundaries else None


def _is_identity(shape: Optional[RateShape]) -> bool:
    return shape is None or (isinstance(shape, ConstantShape) and shape.is_identity)


def _class_program(
    shape: Optional[RateShape], class_shape: Optional[RateShape]
) -> RateShape:
    """The rate program of one class: overall shape x class shape."""
    if shape is None:
        return class_shape if class_shape is not None else ConstantShape()
    if class_shape is None:
        return shape
    return _ProductShape(shape, class_shape)


def _thinned_arrivals(
    shape: RateShape,
    qps: float,
    gap_stream: RandomStream,
    accept_stream: RandomStream,
) -> Iterator[float]:
    """Poisson arrivals at ``qps * level(t)`` by Lewis thinning.

    Candidates arrive at the peak rate ``qps * max_level`` and are accepted
    with probability ``level(t) / max_level``.  A level-1 constant shape
    accepts every candidate without touching the acceptance stream, so its
    arrival times are those of the plain Poisson process.

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


# ---------------------------------------------------------------------------
# The arrival plan
# ---------------------------------------------------------------------------


#: One traffic class of a plan: (label, workload, weight[, shape[, tenants]]).
#: ``label=None`` is the unlabelled class of a single-workload plan.
PlanClass = Union[
    Tuple[Optional[str], Workload, float],
    Tuple[Optional[str], Workload, float, Optional[RateShape]],
    Tuple[Optional[str], Workload, float, Optional[RateShape], Optional[TenantSpec]],
]


def _substream(stream: RandomStream, name: str, label: Optional[str]) -> RandomStream:
    """The class's own substream: bare ``name`` for the unlabelled class."""
    return stream.substream(name if label is None else f"{name}/{label}")


def _superposed(
    programs: Sequence[Iterator[float]],
    num_requests: int,
    duration_s: Optional[float],
) -> Tuple[List[float], List[int]]:
    """Merge per-class arrival streams by time: (times, class indices)."""
    merged: List[Tuple[float, int]] = []
    for index, arrivals in enumerate(programs):
        first = next(arrivals, None)
        if first is not None:
            heapq.heappush(merged, (first, index))
    times: List[float] = []
    indices: List[int] = []
    while merged:
        t, index = heapq.heappop(merged)
        if duration_s is not None and t > duration_s:
            # Streams yield non-decreasing times: once the earliest pending
            # arrival is past the span, every later one is too.
            break
        times.append(t)
        indices.append(index)
        if len(times) >= num_requests:
            break
        upcoming = next(programs[index], None)
        if upcoming is not None:
            heapq.heappush(merged, (upcoming, index))
    return times, indices


def _tenant_column(
    stream: RandomStream,
    labels: Sequence[Optional[str]],
    specs: Sequence[Optional[TenantSpec]],
    indices: Sequence[int],
) -> Optional[List[Optional[Tenant]]]:
    """Per-arrival tenant draws (``None`` when no class is tenanted).

    Each tenanted class draws from its own user population on its own
    ``tenants`` substream, created on first use, so tenant draws never
    perturb arrival times or task picks.
    """
    if all(spec is None for spec in specs):
        return None
    samplers: Dict[int, Tuple[TenantPopulation, RandomStream]] = {}
    column: List[Optional[Tenant]] = []
    for index in indices:
        spec = specs[index]
        if spec is None:
            column.append(None)
            continue
        sampler = samplers.get(index)
        if sampler is None:
            sampler = samplers[index] = (
                TenantPopulation(spec),
                _substream(stream, "tenants", labels[index]),
            )
        column.append(sampler[0].sample(sampler[1]))
    return column


def arrival_plan(
    classes: Sequence[PlanClass],
    qps: float,
    num_requests: int,
    stream: RandomStream,
    task_pool_size: int = 64,
    process: str = "poisson",
    shape: Optional[RateShape] = None,
    duration_s: Optional[float] = None,
    tenants: Optional[TenantSpec] = None,
) -> ArrivalPlan:
    """One arrival schedule over weighted traffic classes.

    ``classes`` is a sequence of ``(label, workload, weight)``,
    ``(label, workload, weight, shape)`` or ``(label, workload, weight,
    shape, tenants)``.  A labelled class tags each of its arrivals with its
    label so the cluster can route it to the right pool; a one-class plan
    may leave its class unlabelled (``label=None``).  A per-class
    :class:`TenantSpec` overrides the plan-level ``tenants`` default for
    that class.  Each class draws from its own substreams (bare names for
    the unlabelled class, ``<name>/{label}`` otherwise), so adding or
    reshaping one class never perturbs another's task picks or tenants.

    Tasks are picked from each class's pool of ``task_pool_size`` samples:
    with replacement for ``poisson`` arrivals, round-robin per class for
    ``uniform`` (deterministic) arrivals.

    Without shaping (no ``shape``, no class shape, no ``duration_s``): one
    arrival process at ``qps``, each arrival drawing its class by weight.
    Otherwise each class becomes its own shaped process at rate
    ``qps * normalized_weight * shape.level(t) * class_shape.level(t)``,
    and the per-class processes are superposed by arrival time.
    ``duration_s`` switches the plan from count semantics (exactly
    ``num_requests`` arrivals) to span semantics (every arrival inside
    ``[0, duration_s]``, with ``num_requests`` as a safety cap).
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if not classes:
        raise ValueError("an arrival plan needs at least one traffic class")
    if duration_s is not None and duration_s <= 0:
        raise ValueError("duration_s must be > 0 (or None for count semantics)")
    if process not in ("poisson", "uniform"):
        raise ValueError(f"arrival plans support poisson/uniform, not {process!r}")
    if shape is not None and not isinstance(shape, RateShape):
        raise ValueError(f"arrival_plan needs a RateShape, got {shape!r}")
    if stream is None:
        raise ValueError("arrival_plan needs a RandomStream to draw from")
    labels = [entry[0] for entry in classes]
    if None in labels and len(labels) > 1:
        raise ValueError("only a one-class plan may leave its class unlabelled")
    weights = [entry[2] for entry in classes]
    class_shapes = [entry[3] if len(entry) > 3 else None for entry in classes]
    tenant_specs = [
        entry[4] if len(entry) > 4 and entry[4] is not None else tenants
        for entry in classes
    ]
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError("traffic-class weights must sum to > 0")
    pools = [entry[1].sample_tasks(max(task_pool_size, 1)) for entry in classes]
    if duration_s is None and _is_identity(shape) and all(map(_is_identity, class_shapes)):
        # One arrival process at qps; each arrival draws its class by weight
        # (a one-class plan skips the draw: class-pick is its own substream).
        if process == "poisson":
            arrivals = PoissonArrivals(qps, stream.substream("arrivals"))
        else:
            arrivals = DeterministicArrivals(qps)
        times = arrivals.arrival_times(num_requests)
        if len(classes) == 1:
            indices = [0] * num_requests
        else:
            class_stream = stream.substream("class-pick")
            probabilities = [weight / total_weight for weight in weights]
            order = list(range(len(classes)))
            indices = [class_stream.choice(order, p=probabilities) for _ in times]
    else:
        programs = []
        for label, weight, class_shape in zip(labels, weights, class_shapes):
            program = _class_program(shape, class_shape)
            class_rate = qps * weight / total_weight
            if process == "poisson":
                programs.append(
                    _thinned_arrivals(
                        program,
                        class_rate,
                        _substream(stream, "arrivals", label),
                        _substream(stream, "thinning", label),
                    )
                )
            else:
                programs.append(
                    iter_deterministic_arrivals(program, class_rate, stop_before=duration_s)
                )
        times, indices = _superposed(programs, num_requests, duration_s)
        if not times:
            raise ValueError(
                "arrival plan generated no arrivals: every class stays at zero "
                "rate for the whole plan span"
            )
    if process == "poisson":
        picks = [_substream(stream, "task-pick", label) for label in labels]
        tasks = [pools[i][picks[i].integers(0, len(pools[i]))] for i in indices]
    else:
        served = [0] * len(classes)
        tasks = []
        for i in indices:
            tasks.append(pools[i][served[i] % len(pools[i])])
            served[i] += 1
    return ArrivalPlan(
        arrival_times=times,
        tasks=tasks,
        traffic_classes=None if labels == [None] else [labels[i] for i in indices],
        tenants=_tenant_column(stream, labels, tenant_specs, indices),
    )
