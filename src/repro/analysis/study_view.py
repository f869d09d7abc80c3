"""The one shape of grid studies and paper artifacts: a declared view over a study result.

Each grid study and paper artifact in :mod:`repro.analysis` runs a
:class:`~repro.api.StudySpec` and wraps the :class:`~repro.api.StudyResult`
in a subclass of :class:`StudyView` that declares only what differs
between studies: the table's label columns (``LABELS``) and metric
columns (``METRICS``) and, for a :class:`FrontierView`, the cost/quality
frontier and how its table prints.  Rows, tables, one-cell metrics
(through :meth:`~repro.api.StudyResult.at`, which insists on exactly one
matching point) and frontier queries, such as the best point within a
cost budget, live here once.

:class:`DesignSpaceView` is the frontier of the paper's accuracy/latency
design space (Figs. 13-17) with the markers the paper draws on it.  The
helpers build what the Table IV serving studies share: the chat+agent
traffic mixture, the chat-pool + agent-pool fleet layout, and a predictive
autoscaler whose forecaster carries only the smoothing it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Union

from repro.analysis.reporting import format_table
from repro.api import (
    AutoscalerSpec,
    ParetoPoint,
    PoolSpec,
    StudyPoint,
    StudyResult,
    WeightedWorkload,
)
from repro.api.results import Metric
from repro.serving.forecast import FORECASTERS

#: A label column's source: a coordinate name, or a callable on the point.
Label = Union[str, Callable[[StudyPoint], Any]]


@dataclass
class StudyView:
    """A study result seen through its study's columns and title."""

    result: StudyResult
    title: str

    #: The table's metric columns: (column name, metric) pairs.
    METRICS: ClassVar[Tuple[Tuple[str, Metric], ...]] = ()
    #: The label columns before them: (column name, label) pairs.  A named
    #: coordinate prints its value and is left out of the rows of points
    #: that do not set it; empty means every coordinate's label, as
    #: :meth:`~repro.api.StudyResult.tabulate` prints them.
    LABELS: ClassVar[Tuple[Tuple[str, Label], ...]] = ()

    def rows(self) -> List[Dict[str, object]]:
        if not self.LABELS:
            return self.result.tabulate(self.METRICS)
        return [self.row(point) for point in self.result.points]

    def row(self, point: StudyPoint) -> Dict[str, object]:
        """One point's ``LABELS`` and ``METRICS`` columns."""
        row: Dict[str, object] = {}
        for column, label in self.LABELS:
            if callable(label):
                row[column] = label(point)
            elif label in point.coords:
                row[column] = point.coords[label]
        for column, metric in self.METRICS:
            row[column] = point.metric(metric, missing_ok=True)
        return row

    def format(self) -> str:
        return format_table(self.rows(), self.title)

    def metric(self, name: Metric, **coords: Any) -> Any:
        """``name`` on the one grid cell at ``coords`` (axis labels or values)."""
        return self.result.at(**coords).metric(name)


class FrontierView(StudyView):
    """A :class:`StudyView` whose study declares a cost/quality frontier.

    ``COST`` and ``QUALITY`` name ``METRICS`` columns; cost is minimised,
    quality too unless ``MINIMIZE_QUALITY`` is false.  The frontier table
    prints the ``FRONTIER_AXES`` labels, then cost, quality and the
    ``FRONTIER_EXTRAS`` columns, under ``FRONTIER_TITLE`` formatted with
    the slice's coordinates.
    """

    COST: ClassVar[str]
    QUALITY: ClassVar[str]
    MINIMIZE_QUALITY: ClassVar[bool] = True
    FRONTIER_AXES: ClassVar[Tuple[str, ...]] = ()
    FRONTIER_EXTRAS: ClassVar[Tuple[str, ...]] = ()
    FRONTIER_TITLE: ClassVar[str] = ""

    def frontier(self, **coords: Any) -> List[ParetoPoint]:
        """The Pareto frontier of the slice at ``coords``, cheapest first."""
        metrics = dict(self.METRICS)
        return self.result.slice(**coords).pareto_frontier(
            cost=metrics[self.COST],
            quality=metrics[self.QUALITY],
            minimize_quality=self.MINIMIZE_QUALITY,
        )

    def best_within(self, cost_budget: float, **coords: Any) -> ParetoPoint:
        """The best-quality frontier point of the slice at ``coords`` whose
        cost fits ``cost_budget``, else the cheapest (its ``cost`` then
        shows the budget was blown)."""
        frontier = self.frontier(**coords)
        if not frontier:
            raise ValueError(f"no study points match {coords}")
        affordable = [entry for entry in frontier if entry.cost <= cost_budget]
        if not affordable:
            return frontier[0]
        sign = 1.0 if self.MINIMIZE_QUALITY else -1.0
        return min(affordable, key=lambda entry: sign * entry.quality)

    def frontier_labels(self, axis: str, **coords: Any) -> List[str]:
        """The ``axis`` labels of the frontier members, cheapest first."""
        return [entry.point.labels[axis] for entry in self.frontier(**coords)]

    def format_frontier(self, **coords: Any) -> str:
        metrics = dict(self.METRICS)
        columns = (self.COST, self.QUALITY) + self.FRONTIER_EXTRAS
        rows = [
            {
                **{axis: entry.point.labels[axis] for axis in self.FRONTIER_AXES},
                **{column: entry.point.metric(metrics[column]) for column in columns},
            }
            for entry in self.frontier(**coords)
        ]
        return format_table(rows, self.FRONTIER_TITLE.format(**coords))


def accuracy_per_second(accuracy: float, latency_s: float) -> float:
    """Accuracy per second of end-to-end latency (paper Fig. 13b)."""
    return accuracy / latency_s if latency_s > 0 else 0.0


class DesignSpaceView(FrontierView):
    """Accuracy (``QUALITY``) against latency (``COST``), with the paper's
    markers; each marker reads the rows of the slice at ``coords``."""

    MINIMIZE_QUALITY = False

    def _rows(self, **coords: object) -> List[Dict[str, object]]:
        return [self.row(point) for point in self.result.slice(**coords).points]

    def efficiency(self, row: Dict[str, object]) -> float:
        """A row's accuracy per second of latency."""
        return accuracy_per_second(row[self.QUALITY], row[self.COST])

    def best_accuracy(self, **coords: object) -> Optional[Dict[str, object]]:
        """The red-diamond marker of Figs. 14-15: the most accurate row
        (the fastest among equals)."""
        return max(
            self._rows(**coords),
            key=lambda row: (row[self.QUALITY], -row[self.COST]),
            default=None,
        )

    def best_efficiency(self, **coords: object) -> Optional[Dict[str, object]]:
        """The blue-diamond marker of Figs. 14-15: the best accuracy per second."""
        return max(self._rows(**coords), key=self.efficiency, default=None)

    def normalized_efficiency(self, **coords: object) -> List[float]:
        """Each row's efficiency over the best row's (max 1.0), in row order."""
        efficiencies = [self.efficiency(row) for row in self._rows(**coords)]
        best = max(efficiencies, default=0.0)
        return [value / best if best > 0 else 0.0 for value in efficiencies]

    def diminishing_returns(self, **coords: object) -> List[float]:
        """Marginal accuracy gain per extra second along increasing latency.

        The paper's central claim is that this sequence decays rapidly; the
        bench for Fig. 16 asserts exactly that.
        """
        ordered = sorted(self._rows(**coords), key=lambda row: row[self.COST])
        marginals: List[float] = []
        for previous, current in zip(ordered, ordered[1:]):
            extra_latency = current[self.COST] - previous[self.COST]
            extra_accuracy = current[self.QUALITY] - previous[self.QUALITY]
            marginals.append(extra_accuracy / extra_latency if extra_latency > 0 else 0.0)
        return marginals


def chat_agent_mixture(
    chat_weight: float, agent_weight: float
) -> Tuple[WeightedWorkload, WeightedWorkload]:
    """The Table IV mixture: ShareGPT chat beside ReAct agents on HotpotQA."""
    return (
        WeightedWorkload(
            agent="chatbot", workload="sharegpt", weight=chat_weight, name="chat"
        ),
        WeightedWorkload(
            agent="react", workload="hotpotqa", weight=agent_weight, name="agent"
        ),
    )


def chat_agent_pools(
    chat_replicas: int,
    agent_replicas: int,
    chat_gpu: Optional[str] = None,
    agent_gpu: Optional[str] = None,
) -> Tuple[PoolSpec, PoolSpec]:
    """A least-loaded chat pool beside an SJF/prefix-affinity agent pool.

    ``chat_gpu`` / ``agent_gpu`` pin a pool to a catalog GPU; ``None``
    keeps the experiment's hardware.
    """
    return (
        PoolSpec(
            name="chat",
            model="8b",
            replicas=chat_replicas,
            router="least-loaded",
            traffic_classes=("chat",),
            hardware=chat_gpu,
        ),
        PoolSpec(
            name="agent",
            model="8b",
            replicas=agent_replicas,
            scheduler="sjf-by-predicted-decode",
            router="prefix-affinity",
            traffic_classes=("agent",),
            hardware=agent_gpu,
        ),
    )


def predictive_autoscaler(forecaster: str, **fields: Any) -> AutoscalerSpec:
    """A predictive :class:`~repro.api.AutoscalerSpec` on ``forecaster`` at
    the studies' smoothing (2 s buckets, alpha 0.6, beta 0.4), of which it
    sets the fields that forecaster reads."""
    smoothing = dict(forecaster_bucket_s=2.0, forecaster_alpha=0.6, forecaster_beta=0.4)
    reads = getattr(FORECASTERS.get(forecaster.lower()), "READS", ())
    smoothing = {name: value for name, value in smoothing.items() if name in reads}
    return AutoscalerSpec(mode="predictive", forecaster=forecaster, **smoothing, **fields)
