"""Declarative studies: grid expansion, determinism, slicing, Pareto queries.

The expensive paths (actual experiment execution) run on tiny chatbot
specs; the geometry (expansion order, seed handling, frontier maths) is
pinned on hand-built results so the assertions are exact.
"""

from __future__ import annotations

import json
from typing import List

import pytest

from repro.analysis.study_view import FrontierView
from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    StudyAxis,
    StudyPoint,
    StudyResult,
    StudySpec,
    apply_axis_value,
    resolve_metric,
    run_experiment,
    run_study,
)
from repro.serving.shapes import ConstantShape, SquareWaveShape


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        agent="chatbot",
        workload="sharegpt",
        arrival=ArrivalSpec(
            process="poisson", qps=2.0, num_requests=6, task_pool_size=5
        ),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# Axes and expansion
# ---------------------------------------------------------------------------


class TestStudySpecExpansion:
    def test_grid_is_cartesian_in_declared_order(self):
        study = StudySpec(
            base=tiny_spec(),
            axes=(
                StudyAxis(name="qps", values=(1.0, 2.0)),
                StudyAxis(name="scheduler", values=("fcfs", "priority")),
            ),
        )
        expanded = study.expand()
        assert [coords for coords, _, _ in expanded] == [
            {"qps": 1.0, "scheduler": "fcfs"},
            {"qps": 1.0, "scheduler": "priority"},
            {"qps": 2.0, "scheduler": "fcfs"},
            {"qps": 2.0, "scheduler": "priority"},
        ]
        assert study.num_points == 4

    def test_seeds_expand_innermost(self):
        study = StudySpec(
            base=tiny_spec(),
            axes=(StudyAxis(name="qps", values=(1.0, 2.0)),),
            seeds=(0, 1),
        )
        assert [(coords["qps"], seed) for coords, _, seed in study.expand()] == [
            (1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)
        ]

    def test_explicit_points_apply_dotted_paths(self):
        study = StudySpec(
            base=tiny_spec(),
            points=({"arrival.qps": 3.0}, {"scheduler": "priority"}),
        )
        specs = [study.spec_for(coords, seed) for coords, _, seed in study.expand()]
        assert specs[0].arrival.qps == 3.0
        assert specs[1].scheduler == "priority"

    def test_qps_axis_uses_at_qps(self):
        # The qps axis must switch a characterization base to open-loop
        # Poisson arrivals, exactly like the legacy sweep.
        study = StudySpec(
            base=tiny_spec(arrival=ArrivalSpec(process="single", num_requests=6)),
            axes=(StudyAxis(name="qps", values=(1.5,)),),
        )
        ((coords, _, seed),) = study.expand()
        spec = study.spec_for(coords, seed)
        assert spec.arrival.process == "poisson"
        assert spec.arrival.qps == 1.5

    def test_invalid_points_fail_at_construction(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            StudySpec(
                base=tiny_spec(),
                axes=(StudyAxis(name="scheduler", values=("fcfs", "lifo")),),
            )
        with pytest.raises(ValueError, match="no field"):
            StudySpec(
                base=tiny_spec(),
                axes=(StudyAxis(name="nonsense.path", values=(1,)),),
            )
        with pytest.raises(ValueError, match="is None on the base spec"):
            StudySpec(
                base=tiny_spec(),
                axes=(StudyAxis(name="autoscaler.forecaster", values=("holt",)),),
            )

    def test_exactly_one_of_axes_or_points(self):
        with pytest.raises(ValueError, match="exactly one"):
            StudySpec(base=tiny_spec())
        with pytest.raises(ValueError, match="exactly one"):
            StudySpec(
                base=tiny_spec(),
                axes=(StudyAxis(name="qps", values=(1.0,)),),
                points=({"qps": 2.0},),
            )

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="at least one value"):
            StudyAxis(name="qps", values=())
        with pytest.raises(ValueError, match="labels must match"):
            StudyAxis(name="qps", values=(1.0, 2.0), labels=("one",))
        with pytest.raises(ValueError, match="duplicate study axis"):
            StudySpec(
                base=tiny_spec(),
                axes=(
                    StudyAxis(name="qps", values=(1.0,)),
                    StudyAxis(name="qps", values=(2.0,)),
                ),
            )

    def test_apply_axis_value_nested(self):
        spec = tiny_spec()
        shaped = apply_axis_value(
            spec, "arrival.shape", SquareWaveShape()
        )
        assert isinstance(shaped.arrival.shape, SquareWaveShape)
        assert spec.arrival.shape is None  # base untouched

    def test_serialization_round_trip(self):
        study = StudySpec(
            base=tiny_spec(),
            axes=(
                StudyAxis(
                    name="shape",
                    field="arrival.shape",
                    values=(ConstantShape(), SquareWaveShape()),
                    labels=("steady", "burst"),
                ),
                StudyAxis(name="qps", values=(1.0, 2.0)),
            ),
            seeds=(0, 1),
            name="round-trip",
        )
        rebuilt = StudySpec.from_dict(json.loads(json.dumps(study.to_dict())))
        assert rebuilt == study

    def test_serialization_round_trip_rebuilds_nested_agent_config(self):
        from repro.agents import AgentConfig
        from repro.api import WeightedWorkload

        mixtures = (
            (
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", name="chat",
                    agent_config=AgentConfig(max_iterations=3),
                ),
                WeightedWorkload(agent="react", workload="hotpotqa", name="agent"),
            ),
            (
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", name="chat",
                    shape=SquareWaveShape(),
                ),
                WeightedWorkload(agent="react", workload="hotpotqa", name="agent"),
            ),
        )
        study = StudySpec(
            base=tiny_spec(workloads=mixtures[0]),
            axes=(StudyAxis(name="workloads", values=mixtures),),
        )
        rebuilt = StudySpec.from_dict(json.loads(json.dumps(study.to_dict())))
        assert rebuilt == study
        first = rebuilt.axes[0].values[0][0]
        assert isinstance(first.agent_config, AgentConfig)

    @pytest.mark.parametrize(
        "artifact",
        [
            "characterization_study", "figure7", "figure9", "figure11", "figure12",
            "figure13", "figure14", "figure15", "figure16", "figure17", "table3",
        ],
    )
    def test_paper_artifact_studies_round_trip(self, artifact, monkeypatch):
        """Every paper artifact's declared study, agent configs included,
        survives JSON; ``run_study`` is stubbed, so nothing runs."""
        import repro.analysis as analysis
        from repro.analysis import figures, tables

        declared = []

        def declare_only(study, **_):
            declared.append(study)
            return StudyResult(study=study)

        monkeypatch.setattr(figures, "run_study", declare_only)
        monkeypatch.setattr(tables, "run_study", declare_only)
        getattr(analysis, artifact)()
        (study,) = declared
        assert StudySpec.from_dict(json.loads(json.dumps(study.to_dict()))) == study


# ---------------------------------------------------------------------------
# Hand-built results: slicing, tabulation, Pareto geometry
# ---------------------------------------------------------------------------


class FakeOutcome:
    """Duck-typed stand-in for a ResultSet (metrics resolve by attribute)."""

    def __init__(self, cost: float, p95: float):
        self.replica_seconds = cost
        self.p95_latency = p95
        self.classes = {}


def hand_built(points: List[tuple]) -> StudyResult:
    # The axis targets a real field (seed) so eager validation passes; the
    # outcomes themselves are hand-built fakes.
    study = StudySpec(
        base=tiny_spec(),
        axes=(
            StudyAxis(name="fleet", field="seed", values=tuple(range(len(points)))),
        ),
    )
    result = StudyResult(study=study)
    for index, (label, cost, p95) in enumerate(points):
        result.points.append(
            StudyPoint(
                coords={"fleet": index},
                labels={"fleet": label},
                seed=0,
                spec=study.base,
                outcome=FakeOutcome(cost, p95),
            )
        )
    return result


class TestPareto:
    def test_frontier_drops_dominated_points(self):
        result = hand_built(
            [
                ("lean", 10.0, 8.0),
                ("dominated", 12.0, 9.0),  # worse cost AND worse p95 than mid
                ("mid", 12.0, 6.0),
                ("heavy", 20.0, 5.0),
            ]
        )
        frontier = result.pareto_frontier(cost="replica_seconds", quality="p95_latency")
        assert [entry.point.labels["fleet"] for entry in frontier] == [
            "lean", "mid", "heavy"
        ]
        assert [entry.cost for entry in frontier] == [10.0, 12.0, 20.0]

    def test_single_point_is_its_own_frontier(self):
        result = hand_built([("only", 5.0, 5.0)])
        frontier = result.pareto_frontier("replica_seconds", "p95_latency")
        assert len(frontier) == 1

    def test_duplicate_points_both_survive(self):
        result = hand_built([("a", 5.0, 5.0), ("b", 5.0, 5.0)])
        frontier = result.pareto_frontier("replica_seconds", "p95_latency")
        assert len(frontier) == 2

    def test_maximized_quality_flips_dominance(self):
        result = hand_built([("cheap-bad", 5.0, 0.5), ("pricey-good", 10.0, 0.9)])
        # Treat p95 slot as an attainment-style score: higher is better.
        frontier = result.pareto_frontier(
            "replica_seconds", "p95_latency", minimize_quality=False
        )
        assert len(frontier) == 2
        # With minimised quality the pricier point is dominated.
        frontier = result.pareto_frontier("replica_seconds", "p95_latency")
        assert [entry.point.labels["fleet"] for entry in frontier] == ["cheap-bad"]

    def test_callable_metrics(self):
        result = hand_built([("a", 5.0, 2.0), ("b", 6.0, 1.0)])
        frontier = result.pareto_frontier(
            cost=lambda outcome: outcome.replica_seconds,
            quality=lambda outcome: outcome.p95_latency * 2,
        )
        assert [entry.quality for entry in frontier] == [4.0, 2.0]

    def test_metric_resolution_errors(self):
        outcome = FakeOutcome(1.0, 1.0)
        with pytest.raises(ValueError, match="no metric"):
            resolve_metric(outcome, "nope")
        with pytest.raises(ValueError, match="no traffic class"):
            resolve_metric(outcome, "p95_latency:chat")


class FakeFleetView(FrontierView):
    """A shared study view declared over the hand-built fakes."""

    METRICS = (("replica_s", "replica_seconds"), ("p95_s", "p95_latency"))
    COST, QUALITY = "replica_s", "p95_s"
    FRONTIER_AXES = ("fleet",)
    FRONTIER_TITLE = "Frontier of {fleet}"


class TestStudyView:
    def view(self) -> FakeFleetView:
        return FakeFleetView(
            result=hand_built(
                [
                    ("lean", 10.0, 8.0),
                    ("dominated", 12.0, 9.0),
                    ("mid", 12.0, 6.0),
                    ("heavy", 20.0, 5.0),
                ]
            ),
            title="Fake fleets",
        )

    def test_frontier_matches_study_frontier(self):
        view = self.view()
        assert view.frontier() == view.result.pareto_frontier(
            cost="replica_seconds", quality="p95_latency"
        )
        assert view.frontier_labels("fleet") == ["lean", "mid", "heavy"]
        assert view.frontier_labels("fleet", fleet="dominated") == ["dominated"]

    def test_format_frontier_prints_axes_cost_and_quality(self):
        assert self.view().format_frontier(fleet="mid") == (
            "Frontier of mid\n"
            "fleet | replica_s | p95_s\n"
            "------+-----------+------\n"
            "mid   | 12.0      | 6.000"
        )

    def test_rows_format_and_metric(self):
        view = self.view()
        assert view.rows()[0] == {"fleet": "lean", "replica_s": 10.0, "p95_s": 8.0}
        assert view.format().startswith("Fake fleets\nfleet ")
        assert view.metric("replica_seconds", fleet="heavy") == 20.0
        with pytest.raises(ValueError, match="0 study points match"):
            view.metric("replica_seconds", fleet="ghost")


class TestSlicing:
    def test_slice_by_label_and_value(self):
        result = hand_built([("lean", 1.0, 1.0), ("heavy", 2.0, 2.0)])
        assert len(result.slice(fleet="lean")) == 1
        assert len(result.slice(fleet=1)) == 1  # coordinate value
        assert len(result.slice(fleet="nope")) == 0

    def test_slice_rejects_a_name_that_is_not_an_axis(self):
        result = hand_built([("lean", 1.0, 1.0)])
        with pytest.raises(ValueError, match="no axis 'flete'; known: \\['fleet'\\]"):
            result.slice(flete="lean")
        # An explicit-points study declares its axes as the point keys.
        points_study = StudyResult(
            study=StudySpec(base=tiny_spec(), points=({"scheduler": "priority"},))
        )
        assert len(points_study.slice(scheduler="priority")) == 0
        assert points_study.axis_values("scheduler") == ["priority"]
        with pytest.raises(ValueError, match="no axis 'schedular'"):
            points_study.slice(schedular="priority")

    def test_at_needs_exactly_one_match(self):
        result = hand_built([("lean", 1.0, 1.0), ("twin", 2.0, 2.0), ("twin", 3.0, 3.0)])
        assert result.at(fleet="lean") is result.points[0]
        assert result.at(fleet=2) is result.points[2]  # coordinate value
        with pytest.raises(ValueError, match="0 study points match"):
            result.at(fleet="ghost")
        with pytest.raises(ValueError, match="2 study points match"):
            result.at(fleet="twin")
        with pytest.raises(ValueError, match="no axis"):
            result.at(flete="lean")

    def test_axis_values_and_names(self):
        result = hand_built([("lean", 1.0, 1.0), ("heavy", 2.0, 2.0)])
        assert result.axis_names == ["fleet"]
        assert result.axis_values("fleet") == [0, 1]
        with pytest.raises(ValueError, match="no axis"):
            result.axis_values("ghost")


# ---------------------------------------------------------------------------
# Execution: determinism and the legacy bridge
# ---------------------------------------------------------------------------


class TestRunStudy:
    def test_points_reproduce_standalone_experiments(self):
        study = StudySpec(
            base=tiny_spec(),
            axes=(StudyAxis(name="qps", values=(1.0, 2.0)),),
        )
        result = run_study(study)
        assert len(result) == 2
        for point in result.points:
            standalone = run_experiment(point.spec)
            assert point.outcome.latencies == standalone.latencies

    def test_seed_as_an_axis_actually_sweeps(self):
        # A seed axis must not be silently reset by the per-point seed fill.
        study = StudySpec(
            base=tiny_spec(),
            axes=(StudyAxis(name="seed", values=(0, 1)),),
        )
        result = run_study(study)
        assert [point.spec.seed for point in result.points] == [0, 1]
        assert result.points[0].outcome.latencies != result.points[1].outcome.latencies

    def test_seed_axis_and_seeds_repetition_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            StudySpec(
                base=tiny_spec(),
                axes=(StudyAxis(name="seed", values=(0, 1)),),
                seeds=(2, 3),
            )

    def test_seed_axis_changes_outcomes_deterministically(self):
        study = StudySpec(
            base=tiny_spec(),
            axes=(StudyAxis(name="qps", values=(2.0,)),),
            seeds=(0, 1),
        )
        first = run_study(study)
        second = run_study(study)
        assert [p.outcome.latencies for p in first.points] == [
            p.outcome.latencies for p in second.points
        ]
        assert first.points[0].outcome.latencies != first.points[1].outcome.latencies
        assert [p.seed for p in first.points] == [0, 1]

    def test_progress_callback_sees_every_point(self):
        seen = []
        study = StudySpec(
            base=tiny_spec(), axes=(StudyAxis(name="qps", values=(1.0, 2.0)),)
        )
        run_study(study, progress=seen.append)
        assert [point.coords["qps"] for point in seen] == [1.0, 2.0]

    def test_parallel_matches_serial_byte_for_byte(self):
        # Grid of 2 axes x 2 values with 2 seeds = 8 points, executed both
        # in-process and across a 4-worker process pool.  Everything the
        # study produces must be identical: point order, full outcomes,
        # tabulation rows, and the Pareto frontier (whose points embed the
        # complete per-point ResultSet, so this is a deep equality).
        study = StudySpec(
            base=tiny_spec(),
            axes=(
                StudyAxis(name="qps", values=(1.0, 2.0)),
                StudyAxis(name="scheduler", values=("fcfs", "vtc")),
            ),
            seeds=(0, 7),
        )
        serial = run_study(study, parallel=1)
        parallel = run_study(study, parallel=4)

        assert [p.coords for p in serial.points] == [p.coords for p in parallel.points]
        assert [p.seed for p in serial.points] == [p.seed for p in parallel.points]
        for a, b in zip(serial.points, parallel.points):
            assert a.outcome.latencies == b.outcome.latencies
            assert a.outcome.energy_wh == b.outcome.energy_wh
            assert a == b
        assert serial.tabulate() == parallel.tabulate()
        assert serial.pareto_frontier(
            cost="replica_seconds", quality="p95_latency"
        ) == parallel.pareto_frontier(cost="replica_seconds", quality="p95_latency")

    def test_parallel_progress_preserves_tabulation_order(self):
        seen = []
        study = StudySpec(
            base=tiny_spec(), axes=(StudyAxis(name="qps", values=(1.0, 2.0)),)
        )
        run_study(study, progress=seen.append, parallel=2)
        assert [point.coords["qps"] for point in seen] == [1.0, 2.0]

    def test_parallel_rejects_nonpositive_workers(self):
        study = StudySpec(
            base=tiny_spec(), axes=(StudyAxis(name="qps", values=(1.0,)),)
        )
        with pytest.raises(ValueError, match="parallel"):
            run_study(study, parallel=0)

    def test_result_set_metric_uses_study_vocabulary(self):
        outcome = run_experiment(tiny_spec())
        assert outcome.metric("replica_seconds") == outcome.replica_seconds
        assert outcome.metric("p95_latency") == outcome.p95_latency
        with pytest.raises(ValueError, match="no metric"):
            outcome.metric("nope")

    def test_tabulate_and_format(self):
        study = StudySpec(
            base=tiny_spec(), axes=(StudyAxis(name="qps", values=(2.0,)),)
        )
        result = run_study(study)
        rows = result.tabulate()
        assert rows[0]["qps"] == "2"
        assert rows[0]["completed"] == 6
        table = result.format("tiny study")
        assert "tiny study" in table and "completed" in table
        # Legitimately absent metrics render as empty cells...
        rows = result.tabulate([("chat_p95", "p95_latency:chat")])
        assert rows[0]["chat_p95"] is None
        # ...but a misspelled metric name fails loudly.
        with pytest.raises(ValueError, match="no metric"):
            result.tabulate([("p95", "p95_latency_s")])
