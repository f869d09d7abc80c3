"""The one shape of the grid studies: a declared view over a study result.

Each grid study in :mod:`repro.analysis` runs a :class:`~repro.api.StudySpec`
and wraps the :class:`~repro.api.StudyResult` in a subclass of
:class:`StudyView` that declares only what differs between studies: the
table's columns (``METRICS``) and, for a :class:`FrontierView`, the
cost/quality frontier and how its table prints.  Rows, tables, one-cell
metrics (through :meth:`~repro.api.StudyResult.at`, which insists on
exactly one matching point) and frontier queries live here once.

The two helpers build what the Table IV serving studies share: the
chat+agent traffic mixture and the chat-pool + agent-pool fleet layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.api import ParetoPoint, PoolSpec, StudyResult, WeightedWorkload
from repro.api.results import Metric


@dataclass
class StudyView:
    """A study result seen through its study's columns and title."""

    result: StudyResult
    title: str

    #: The table's columns: (column name, metric) pairs.
    METRICS: ClassVar[Tuple[Tuple[str, Metric], ...]] = ()

    def rows(self) -> List[Dict[str, object]]:
        return self.result.tabulate(self.METRICS)

    def format(self) -> str:
        return self.result.format(self.title, self.METRICS)

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
