"""Declarative studies: named axes over any spec field, run as one grid.

A :class:`StudySpec` generalises the qps-only sweep into the
capacity-planning studies the paper's Table IV gestures at: declare a
``base`` :class:`~repro.api.spec.ExperimentSpec` and a set of
:class:`StudyAxis` -- each naming a spec field (any dotted path:
``arrival.qps``, ``arrival.shape``, ``pools``, ``scheduler``,
``autoscaler.forecaster``, ``admission``, ...) and the values to sweep --
and :func:`run_study` expands the Cartesian grid (or an explicit
``points`` list), runs every point with per-point seeds, and returns a
:class:`StudyResult` supporting tabulation, per-axis slicing, and
:meth:`~StudyResult.pareto_frontier` queries (e.g. replica-seconds vs
per-class p95 -- the fleet-sizing study).

An offered-load sweep (one curve of paper Fig. 11) is a one-axis study:
the ``qps`` axis (or a ``qps`` key of a point) is shorthand for
:meth:`ExperimentSpec.at_qps`, and :func:`repro.analysis.peak_throughput`
reads the knee off its serving outcomes.

Metrics (for tabulation, cell lookups and Pareto queries) are either
callables on the point's :class:`~repro.api.results.ResultSet` or names in
the metric vocabulary :func:`~repro.api.results.resolve_metric` defines.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.codec import decode, field_type, from_dict
from repro.api.results import Metric, ResultSet, resolve_metric
from repro.api.spec import ExperimentSpec, PoolSpec
from repro.core.pareto import pareto_frontier
from repro.serving.shapes import RateShape


def _default_label(value: Any) -> str:
    """Short human label for an axis value (shapes, pool tuples, specs, scalars).

    Any other dataclass prints as its type and the fields it sets away from
    their defaults: ``AdmissionSpec(policy=token-bucket, rate_qps=1)``.
    """
    if isinstance(value, RateShape):
        return getattr(value, "kind", type(value).__name__)
    if isinstance(value, tuple) and value and all(
        isinstance(entry, PoolSpec) for entry in value
    ):
        return "+".join(f"{pool.name}x{pool.replicas}" for pool in value)
    if isinstance(value, float):
        return f"{value:g}"
    if is_dataclass(value) and not isinstance(value, type):
        set_fields: List[str] = []
        for spec_field in fields(value):
            default = spec_field.default
            if spec_field.default_factory is not MISSING:
                default = spec_field.default_factory()
            current = getattr(value, spec_field.name)
            if current != default:
                set_fields.append(f"{spec_field.name}={_default_label(current)}")
        return f"{type(value).__name__}({', '.join(set_fields)})"
    return str(value)


@dataclass(frozen=True)
class StudyAxis:
    """One named dimension of a study grid.

    ``field`` is the dotted spec path the values replace (defaults to
    ``name``); the special path ``qps`` applies
    :meth:`ExperimentSpec.at_qps` so sweeping load also switches
    characterization specs to open-loop Poisson arrivals.  ``labels``
    (optional, same length as ``values``) are the
    display names used in tables and slices.
    """

    name: str
    values: Tuple[Any, ...]
    field: str = ""
    labels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("study axis name must be non-empty")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"study axis {self.name!r} needs at least one value")
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if self.labels and len(self.labels) != len(self.values):
            raise ValueError(
                f"study axis {self.name!r}: labels must match values "
                f"({len(self.labels)} labels for {len(self.values)} values)"
            )

    @property
    def path(self) -> str:
        """The dotted spec path this axis sweeps (``field``, or ``name``)."""
        return self.field or self.name

    def label_for(self, index: int) -> str:
        """Display label of the value at ``index`` (derived when unset)."""
        if self.labels:
            return self.labels[index]
        return _default_label(self.values[index])


def apply_axis_value(spec: ExperimentSpec, path: str, value: Any) -> ExperimentSpec:
    """Copy ``spec`` with the field at dotted ``path`` replaced by ``value``.

    ``qps`` is shorthand for :meth:`ExperimentSpec.at_qps`.  Intermediate
    path segments must be dataclass fields (``arrival.shape``,
    ``autoscaler.forecaster``, ``measurement.slo_p95_s``, ...); validation
    reruns on construction, so an invalid point fails loudly at expansion
    time rather than mid-study.
    """
    if path == "qps":
        return spec.at_qps(value)
    parts = path.split(".")

    def _apply(obj: Any, remaining: List[str]) -> Any:
        head = remaining[0]
        if not is_dataclass(obj) or not hasattr(obj, head):
            raise ValueError(
                f"study axis path {path!r}: {type(obj).__name__} has no field {head!r}"
            )
        if len(remaining) == 1:
            return replace(obj, **{head: value})
        child = getattr(obj, head)
        if child is None:
            raise ValueError(
                f"study axis path {path!r}: {head!r} is None on the base spec; "
                "set a base value to sweep its fields"
            )
        return replace(obj, **{head: _apply(child, remaining[1:])})

    return _apply(spec, parts)


@dataclass(frozen=True)
class StudySpec:
    """A declarative study: a base spec plus the grid to explore around it.

    Exactly one of ``axes`` (Cartesian grid) or ``points`` (explicit list
    of ``{path: value}`` mappings) describes the exploration; ``seeds``
    optionally repeats every point at several seeds (empty = the base
    spec's seed).  Every point is validated at construction by actually
    building its :class:`ExperimentSpec`.
    """

    base: ExperimentSpec
    axes: Tuple[StudyAxis, ...] = ()
    points: Tuple[Mapping[str, Any], ...] = ()
    seeds: Tuple[int, ...] = ()
    name: str = "study"

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            raise ValueError("study base must be an ExperimentSpec")
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if not isinstance(self.seeds, tuple):
            object.__setattr__(self, "seeds", tuple(self.seeds))
        if bool(self.axes) == bool(self.points):
            raise ValueError("a study declares exactly one of axes or points")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate study axis names: {names}")
        for seed in self.seeds:
            if not isinstance(seed, int) or seed < 0:
                raise ValueError(f"study seeds must be non-negative ints, got {seed!r}")
        if self.seeds:
            swept_paths = {axis.path for axis in self.axes}
            swept_paths.update(key for point in self.points for key in point)
            if "seed" in swept_paths:
                raise ValueError(
                    "declare seeds either as the seeds= repetition or as a "
                    "seed axis/point coordinate, not both"
                )
        # Eager validation: every grid point must build a valid spec, and
        # one label of an axis must name one value, or slices by it merge.
        labelled: Dict[Tuple[str, str], Any] = {}
        for coords, labels, seed in self.expand():
            self.spec_for(coords, seed)
            for name, label in labels.items():
                if labelled.setdefault((name, label), coords[name]) != coords[name]:
                    raise ValueError(
                        f"study axis {name!r}: label {label!r} names two "
                        "different values; pass labels to tell them apart"
                    )

    # -- expansion -------------------------------------------------------------
    def expand(self) -> List[Tuple[Dict[str, Any], Dict[str, str], int]]:
        """The full grid: (coords, labels, seed) per run, in execution order.

        Axes expand in declared order with the last axis fastest and seeds
        innermost, so execution order (and therefore per-point streams) is a
        pure function of the study declaration.
        """
        seeds = self.seeds or (self.base.seed,)
        expanded: List[Tuple[Dict[str, Any], Dict[str, str], int]] = []
        if self.axes:
            index_grid = itertools.product(
                *[range(len(axis.values)) for axis in self.axes]
            )
            for indices in index_grid:
                coords = {
                    axis.name: axis.values[i] for axis, i in zip(self.axes, indices)
                }
                labels = {
                    axis.name: axis.label_for(i) for axis, i in zip(self.axes, indices)
                }
                for seed in seeds:
                    expanded.append((coords, labels, seed))
        else:
            for point in self.points:
                coords = dict(point)
                labels = {key: _default_label(value) for key, value in coords.items()}
                for seed in seeds:
                    expanded.append((coords, labels, seed))
        return expanded

    def spec_for(self, coords: Mapping[str, Any], seed: int) -> ExperimentSpec:
        """The concrete :class:`ExperimentSpec` of one grid point."""
        spec = self.base
        paths = {axis.name: axis.path for axis in self.axes}
        seed_swept = False
        for name, value in coords.items():
            path = paths.get(name, name)
            seed_swept = seed_swept or path == "seed"
            spec = apply_axis_value(spec, path, value)
        # The per-point seed fills in when seeds aren't an axis themselves;
        # a swept seed coordinate must never be overwritten back to the base.
        if not seed_swept and seed != spec.seed:
            spec = replace(spec, seed=seed)
        return spec

    # -- serialisation --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready); inverse of :meth:`from_dict`.

        ``dataclasses.asdict``, so each axis value and point coordinate is
        written as the field it replaces appears in
        :meth:`ExperimentSpec.to_dict`.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StudySpec":
        """Rebuild a study from :meth:`to_dict` output.

        Each axis value and point coordinate decodes as the declared type of
        the spec field at its path (``qps`` as a float); the rest goes
        through :func:`repro.api.codec.from_dict`.
        """

        def decode_at(path: str, value: Any) -> Any:
            declared = float if path == "qps" else field_type(ExperimentSpec, path)
            return decode(declared, value)

        axes = [
            dict(axis, values=[
                decode_at(axis.get("field") or axis["name"], value)
                for value in axis["values"]
            ])
            for axis in payload.get("axes", ())
        ]
        points = [
            {path: decode_at(path, value) for path, value in point.items()}
            for point in payload.get("points", ())
        ]
        return from_dict(cls, dict(payload, axes=axes, points=points))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class StudyPoint:
    """One executed grid point: its coordinates, spec, and outcome."""

    coords: Dict[str, Any]
    labels: Dict[str, str]
    seed: int
    spec: ExperimentSpec
    outcome: ResultSet

    def metric(self, metric: Metric, missing_ok: bool = False) -> Any:
        """Evaluate a study metric on this point's outcome (see module docs)."""
        return resolve_metric(self.outcome, metric, missing_ok=missing_ok)


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier member with its evaluated cost and quality."""

    point: StudyPoint
    cost: float
    quality: float


@dataclass
class StudyResult:
    """Outcome of :func:`run_study`: the executed grid, queryable."""

    study: StudySpec
    points: List[StudyPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def axis_names(self) -> List[str]:
        """Axis names in declaration order (point keys for explicit points)."""
        if self.study.axes:
            return [axis.name for axis in self.study.axes]
        names: List[str] = []
        for point in self.study.points:
            for name in point:
                if name not in names:
                    names.append(name)
        return names

    def axis_values(self, name: str) -> List[Any]:
        """The distinct values of one axis, in declared (execution) order."""
        for axis in self.study.axes:
            if axis.name == name:
                return list(axis.values)
        values: List[Any] = []
        for point in self.study.points:
            if name in point and point[name] not in values:
                values.append(point[name])
        if not values:
            raise ValueError(f"study has no axis {name!r}; known: {self.axis_names}")
        return values

    # -- slicing ---------------------------------------------------------------
    def slice(self, **coords: Any) -> "StudyResult":
        """The sub-study matching every given coordinate (value or label).

        Raises ``ValueError`` for a name that is not an axis of the study,
        so a misspelt axis cannot silently match nothing.
        """
        unknown = [name for name in coords if name not in self.axis_names]
        if unknown:
            raise ValueError(
                f"study has no axis {unknown[0]!r}; known: {self.axis_names}"
            )
        kept = [
            point
            for point in self.points
            if all(
                point.coords.get(name) == value or point.labels.get(name) == value
                for name, value in coords.items()
            )
        ]
        return StudyResult(study=self.study, points=kept)

    def at(self, **coords: Any) -> StudyPoint:
        """The one point matching every given coordinate (value or label).

        Raises ``ValueError`` unless exactly one point matches.
        """
        matches = self.slice(**coords).points
        if len(matches) != 1:
            raise ValueError(
                f"{len(matches)} study points match {coords}; expected exactly one"
            )
        return matches[0]

    # -- tabulation ------------------------------------------------------------
    DEFAULT_METRICS: Tuple[Tuple[str, Metric], ...] = (
        ("completed", "num_completed"),
        ("p95_s", "p95_latency"),
        ("throughput_qps", "throughput_qps"),
        ("energy_wh", "energy_wh"),
        ("replica_seconds", "replica_seconds"),
        ("rejection_rate", "rejection_rate"),
    )

    def tabulate(
        self, metrics: Optional[Sequence[Tuple[str, Metric]]] = None
    ) -> List[Dict[str, Any]]:
        """One flat row per point: axis labels, seed, and the given metrics."""
        chosen = tuple(metrics) if metrics is not None else self.DEFAULT_METRICS
        rows: List[Dict[str, Any]] = []
        multi_seed = len({point.seed for point in self.points}) > 1
        for point in self.points:
            row: Dict[str, Any] = dict(point.labels)
            if multi_seed:
                row["seed"] = point.seed
            for column, metric in chosen:
                # missing_ok: a class the point never served or a None-valued
                # telemetry field gives None, which format_value prints as
                # the text "None"; unknown metric names still raise.
                row[column] = point.metric(metric, missing_ok=True)
            rows.append(row)
        return rows

    def format(
        self,
        title: str = "",
        metrics: Optional[Sequence[Tuple[str, Metric]]] = None,
    ) -> str:
        """The tabulation rendered as an aligned text table."""
        # Local import: repro.analysis imports repro.api at module load.
        from repro.analysis.reporting import format_table

        return format_table(self.tabulate(metrics), title or self.study.name)

    # -- Pareto queries --------------------------------------------------------
    def pareto_frontier(
        self,
        cost: Metric,
        quality: Metric,
        minimize_cost: bool = True,
        minimize_quality: bool = True,
    ) -> List[ParetoPoint]:
        """The non-dominated points of the cost/quality plane.

        Defaults minimise both (e.g. ``cost="replica_seconds"``,
        ``quality="p95_latency:chat"`` -- pay less, respond faster); flip
        ``minimize_quality=False`` for maximised qualities such as
        ``slo_attainment:chat``.  Returns frontier members sorted by
        cost, each with its evaluated coordinates.
        """
        evaluated = [
            ParetoPoint(
                point=point,
                cost=point.metric(cost),
                quality=point.metric(quality),
            )
            for point in self.points
        ]
        return pareto_frontier(
            evaluated,
            cost=lambda entry: entry.cost,
            quality=lambda entry: entry.quality,
            minimize_cost=minimize_cost,
            minimize_quality=minimize_quality,
        )


def _run_study_point(payload: Tuple[StudySpec, int]) -> ResultSet:
    """Execute one grid point by index (module-level so it pickles).

    Workers receive the whole study plus the point's position in
    :meth:`StudySpec.expand` order and rebuild the concrete spec
    themselves, so the parent never has to ship non-picklable callables --
    and every worker derives the point exactly the way the serial loop
    does, keeping seeds and spec construction identical.
    """
    from repro.api.runners import run_experiment

    study, index = payload
    coords, _labels, seed = study.expand()[index]
    return run_experiment(study.spec_for(coords, seed))


def run_study(
    study: StudySpec,
    progress: Optional[Callable[[StudyPoint], None]] = None,
    parallel: int = 1,
) -> StudyResult:
    """Execute every point of the study grid (fresh system per point).

    Points run in :meth:`StudySpec.expand` order; each builds its spec
    (base + axis overrides + per-point seed) and drives it through
    :func:`~repro.api.runners.run_experiment`, so a one-point study is
    exactly one experiment.  ``progress`` (optional) is called after each
    completed point.

    ``parallel=N`` fans the points out over a ``ProcessPoolExecutor`` with
    ``N`` workers.  Points are independent (fresh simulation, per-point
    seed), so the merged :class:`StudyResult` is bit-for-bit identical to
    serial execution: same expansion order, same seeds, same tabulation.
    ``progress`` still fires in expansion order as results stream back.
    """
    from repro.api.runners import run_experiment

    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    grid = study.expand()
    result = StudyResult(study=study)

    def _append(index: int, outcome: ResultSet) -> None:
        coords, labels, seed = grid[index]
        point = StudyPoint(
            coords=dict(coords), labels=dict(labels), seed=seed,
            spec=study.spec_for(coords, seed), outcome=outcome,
        )
        result.points.append(point)
        if progress is not None:
            progress(point)

    if parallel > 1 and len(grid) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(parallel, len(grid))
        tasks = [(study, index) for index in range(len(grid))]
        with ProcessPoolExecutor(max_workers=workers) as executor:
            for index, outcome in enumerate(executor.map(_run_study_point, tasks)):
                _append(index, outcome)
    else:
        for index, (coords, _labels, seed) in enumerate(grid):
            _append(index, run_experiment(study.spec_for(coords, seed)))
    return result
