"""Tests for interval arithmetic, metrics, Pareto analysis, and datacenter math."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.study_view import DesignSpaceView
from repro.api import ExperimentSpec, StudyAxis, StudyPoint, StudyResult, StudySpec
from repro.core import (
    GpuRuntimeBreakdown,
    LatencyBreakdown,
    LatencyStats,
    PowerProjection,
    TokenBreakdown,
    format_power,
    gigawatt_threshold_energy_wh,
    intersect,
    merge_intervals,
    pareto_frontier,
    percentile,
    project_power,
    project_scenarios,
    total_length,
)
from repro.core.metrics import mean


class TestIntervals:
    def test_merge_disjoint(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_merge_overlapping(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_merge_touching(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_handles_unsorted_and_reversed(self):
        assert merge_intervals([(5, 4), (1, 2)]) == [(1, 2), (4, 5)]

    def test_zero_length_intervals_dropped(self):
        assert merge_intervals([(1, 1), (2, 2)]) == []

    def test_total_length(self):
        assert total_length([(0, 2), (1, 3), (10, 11)]) == pytest.approx(4.0)

    def test_intersect_basic(self):
        assert intersect([(0, 5)], [(3, 8)]) == [(3, 5)]

    def test_intersect_disjoint_is_empty(self):
        assert intersect([(0, 1)], [(2, 3)]) == []

    def test_intersect_multiple_segments(self):
        result = intersect([(0, 10)], [(1, 2), (3, 4), (9, 12)])
        assert result == [(1, 2), (3, 4), (9, 10)]

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=0, max_size=20
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_union_length_bounds(self, intervals):
        union = total_length(intervals)
        individual = sum(abs(b - a) for a, b in intervals)
        assert 0 <= union <= individual + 1e-9

    @given(
        a=st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50)), max_size=10),
        b=st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50)), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_intersection_never_longer_than_either_side(self, a, b):
        inter = total_length(intersect(a, b))
        assert inter <= total_length(a) + 1e-9
        assert inter <= total_length(b) + 1e-9


class TestStatistics:
    def test_percentile_empty(self):
        assert percentile([], 95) == 0.0

    def test_percentile_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], 150)

    def test_p95_of_uniform_range(self):
        values = list(range(101))
        assert percentile(values, 95) == pytest.approx(95.0)

    def test_mean_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_latency_stats_from_values(self):
        stats = LatencyStats.from_values([1, 2, 3, 4, 100])
        assert stats.count == 5
        assert stats.maximum == 100
        assert stats.p50 == 3
        assert stats.mean == pytest.approx(22.0)

    @given(st.lists(st.floats(0, 1e4), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_percentile_within_min_max(self, values):
        p95 = percentile(values, 95)
        assert min(values) - 1e-9 <= p95 <= max(values) + 1e-9


class TestBreakdownAggregation:
    def test_latency_breakdown_fractions_sum_to_one(self):
        breakdown = LatencyBreakdown(llm_time=6, tool_time=3, overlap_time=0.5, other_time=0.5, total=10)
        assert sum(breakdown.fractions.values()) == pytest.approx(1.0)

    def test_latency_breakdown_zero_total(self):
        breakdown = LatencyBreakdown(0, 0, 0, 0, 0)
        assert breakdown.fractions == {"llm": 0.0, "tool": 0.0, "overlap": 0.0, "other": 0.0}

    def test_latency_breakdown_average(self):
        a = LatencyBreakdown(1, 2, 0, 1, 4)
        b = LatencyBreakdown(3, 0, 0, 1, 4)
        avg = LatencyBreakdown.average([a, b])
        assert avg.llm_time == pytest.approx(2.0)
        assert avg.total == pytest.approx(4.0)

    def test_token_breakdown_totals(self):
        tokens = TokenBreakdown(10, 20, 5, 15, 30, 40)
        assert tokens.input_total == 80
        assert tokens.total == 120
        assert tokens.as_dict()["tool_history"] == 30

    def test_gpu_breakdown_utilization(self):
        gpu = GpuRuntimeBreakdown(prefill=1.0, decode=5.0, idle=4.0)
        assert gpu.utilization == pytest.approx(0.6)
        assert gpu.fractions["idle"] == pytest.approx(0.4)

    def test_gpu_breakdown_empty_average(self):
        assert GpuRuntimeBreakdown.average([]).total == 0.0


def design_frontier(points):
    """Fig. 13's frontier over (label, accuracy, latency_s) tuples: lower
    latency and higher accuracy win."""
    return pareto_frontier(
        points,
        cost=lambda point: point[2],
        quality=lambda point: point[1],
        minimize_quality=False,
    )


def reference_sweep(points):
    """The accuracy/latency sweep the shared frontier replaced, kept as the
    reference: identical except that it keeps only the first of exact
    duplicates."""
    candidates = sorted(points, key=lambda p: (p[2], -p[1]))
    frontier = []
    best_accuracy = -1.0
    for point in candidates:
        if point[1] > best_accuracy:
            frontier.append(point)
            best_accuracy = point[1]
    return frontier


class Designs(DesignSpaceView):
    """The design-space markers over hand-built (label, accuracy, latency_s)
    tuples: each tuple stands in for its point's outcome."""

    LABELS = (("label", lambda point: point.labels["design"]),)
    METRICS = (
        ("accuracy", lambda outcome: outcome[1]),
        ("latency_s", lambda outcome: outcome[2]),
    )
    COST, QUALITY = "latency_s", "accuracy"


def design_view(points):
    study = StudySpec(
        base=ExperimentSpec(),
        axes=(
            StudyAxis(
                name="design",
                field="seed",
                values=tuple(range(len(points))),
                labels=tuple(point[0] for point in points),
            ),
        ),
    )
    executed = [
        StudyPoint(
            coords={"design": index},
            labels={"design": point[0]},
            seed=index,
            spec=study.base,
            outcome=point,
        )
        for index, point in enumerate(points)
    ]
    return Designs(result=StudyResult(study=study, points=executed), title="designs")


class TestPareto:
    def _points(self):
        return [
            ("a", 0.3, 5.0),
            ("b", 0.4, 20.0),
            ("c", 0.8, 60.0),
            ("d", 0.5, 80.0),
        ]

    def test_cost_efficiency(self):
        view = design_view([("x", 0.5, 10.0)])
        (row,) = view.rows()
        assert view.efficiency(row) == pytest.approx(0.05)

    def test_pareto_frontier_excludes_dominated(self):
        frontier = design_frontier(self._points())
        labels = [point[0] for point in frontier]
        assert labels == ["a", "b", "c"]  # d is dominated by c

    def test_exact_duplicates_all_survive_in_input_order(self):
        points = self._points() + [("c2", 0.8, 60.0)]
        assert [point[0] for point in design_frontier(points)] == [
            "a", "b", "c", "c2"
        ]
        assert [point[0] for point in reference_sweep(points)] == ["a", "b", "c"]

    def test_directions_flip_dominance(self):
        items = [(1.0, 1.0), (2.0, 2.0)]
        first, second = (lambda item: item[0]), (lambda item: item[1])
        assert pareto_frontier(items, first, second) == [(1.0, 1.0)]
        assert pareto_frontier(items, first, second, minimize_quality=False) == items
        assert pareto_frontier(
            items, first, second, minimize_cost=False, minimize_quality=False
        ) == [(2.0, 2.0)]

    def test_best_accuracy_and_efficiency_points(self):
        view = design_view(self._points())
        assert view.best_accuracy()["label"] == "c"
        assert view.best_efficiency()["label"] == "a"

    def test_best_points_of_empty_list_are_none(self):
        view = design_view(self._points())
        assert view.best_accuracy(design="missing") is None
        assert view.best_efficiency(design="missing") is None

    def test_normalized_efficiency_max_is_one(self):
        normalized = design_view(self._points()).normalized_efficiency()
        assert max(normalized) == pytest.approx(1.0)
        assert all(0 <= value <= 1 for value in normalized)

    def test_diminishing_returns_sequence(self):
        marginals = design_view(self._points()).diminishing_returns()
        assert len(marginals) == 3
        # accuracy/latency marginal gain decreases along the curve
        assert marginals[0] >= marginals[-1]

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0.1, 1000)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_frontier_is_subset_and_undominated(self, raw):
        points = [(f"p{i}", a, l) for i, (a, l) in enumerate(raw)]
        frontier = design_frontier(points)
        for point in frontier:
            assert point in points
            assert not any(
                other[1] >= point[1]
                and other[2] <= point[2]
                and (other[1] > point[1] or other[2] < point[2])
                for other in points
            )
        # Dropping exact duplicates (after the first) gives the old sweep.
        deduplicated, seen = [], set()
        for point in frontier:
            if (point[2], point[1]) not in seen:
                seen.add((point[2], point[1]))
                deduplicated.append(point)
        assert deduplicated == reference_sweep(points)


class TestDatacenter:
    def test_power_formula_matches_paper(self):
        # Paper: ShareGPT 70B at 2.55 Wh/query and 71.4 M queries/day ~ 7.6 MW.
        projection = project_power("sharegpt-70b", 2.55, 71.4e6)
        assert projection.power_megawatts == pytest.approx(7.6, rel=0.01)

    def test_reflexion_70b_google_scale_is_hundreds_of_gw(self):
        projection = project_power("reflexion-70b", 348.41, 13.7e9)
        assert projection.power_gigawatts == pytest.approx(198.9, rel=0.01)

    def test_daily_energy(self):
        projection = project_power("x", 10.0, 1e6)
        assert projection.daily_energy_gwh == pytest.approx(0.01)

    def test_relative_to_reference(self):
        projection = project_power("x", 100.0, 71.4e6)
        assert projection.relative_to(1e9) == pytest.approx(projection.power_watts / 1e9)
        with pytest.raises(ValueError):
            projection.relative_to(0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            project_power("x", -1.0, 1e6)

    def test_project_scenarios_has_both_traffic_levels(self):
        scenarios = project_scenarios("x", 1.0)
        assert len(scenarios) == 2
        assert any(p.queries_per_day == pytest.approx(71.4e6) for p in scenarios.values())

    def test_gigawatt_threshold_near_paper_value(self):
        # Paper: ~100 Wh/query pushes tens of millions of queries/day to GW scale.
        threshold = gigawatt_threshold_energy_wh()
        assert 200 < threshold < 500

    def test_format_power_units(self):
        assert format_power(500.0) == "500.0 W"
        assert format_power(5.3e3).endswith("kW")
        assert format_power(7.6e6).endswith("MW")
        assert format_power(1.5e9).endswith("GW")
