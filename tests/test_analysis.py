"""Integration tests for the figure/table regeneration layer.

These use very small sample sizes so the whole file runs in well under a
minute while still exercising every analysis entry point end to end.
"""

from __future__ import annotations

import pytest

from repro.agents import PAPER_AGENTS
from repro.analysis import (
    characterization_study,
    default_config,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure12,
    figure13,
    figure14,
    figure15,
    format_table,
    table1,
    table2,
    table3,
    table4,
)
from repro.core import CHATGPT_QUERIES_PER_DAY


@pytest.fixture(scope="module")
def study():
    """Shared tiny characterization study (2 benchmarks, 3 tasks each)."""
    return characterization_study(
        benchmarks=("hotpotqa", "webshop"),
        agents=PAPER_AGENTS,
        num_tasks=3,
        seed=0,
    )


class TestStaticTables:
    def test_table1_rows_match_paper(self):
        rows = {row["Agent"]: row for row in table1().rows()}
        assert len(rows) == 5
        assert rows["cot"]["Tool Use"] == "X"
        assert rows["react"]["Tool Use"] == "O"
        assert rows["lats"]["Tree Search"] == "O"
        assert rows["llmcompiler"]["Structured Planning"] == "O"
        assert all(row["Reasoning"] == "O" for row in rows.values())

    def test_table2_rows_cover_all_benchmarks(self):
        rows = {row["Benchmark"]: row for row in table2().rows()}
        assert set(rows) == {"hotpotqa", "webshop", "math", "humaneval"}
        assert "Wikipedia" in rows["hotpotqa"]["Tool"]
        assert "cot" not in rows["webshop"]["Agent"]

    def test_format_table_renders(self):
        text = table1().format()
        assert "Table I" in text
        assert "llmcompiler" in text


class TestCharacterizationFigures:
    def test_default_config_varies_by_benchmark(self):
        assert default_config("webshop").max_iterations > default_config("hotpotqa").max_iterations
        assert default_config("hotpotqa", num_few_shot=5).num_few_shot == 5

    def test_matrix_respects_support_matrix(self, study):
        assert study.slice(agent="cot", workload="webshop").points == []
        assert study.at(agent="react", workload="hotpotqa").outcome is not None

    def test_figure4_agents_make_more_calls_than_cot(self, study):
        fig = figure4(study=study)
        ratios = fig.llm_call_ratio_vs_cot("hotpotqa")
        assert ratios, "expected tool-augmented agents in the study"
        assert all(ratio > 1.0 for ratio in ratios.values())
        assert max(ratios, key=ratios.get) == "lats"

    def test_figure4_rows_have_expected_columns(self, study):
        rows = figure4(study=study).rows()
        assert {"benchmark", "agent", "llm_invocations", "tool_invocations"} <= set(rows[0])

    def test_figure5_fractions_sum_to_one(self, study):
        for row in figure5(study=study).rows():
            total = row["llm_frac"] + row["tool_frac"] + row["overlap_frac"] + row["other_frac"]
            assert total == pytest.approx(1.0, abs=0.02)

    def test_figure5_both_llm_and_tools_contribute(self, study):
        fractions = figure5(study=study).average_fractions()
        assert fractions["llm"] > 0.3
        assert fractions["tool"] > 0.02

    def test_figure6_utilization_within_unit_range(self, study):
        for row in figure6(study=study).rows():
            assert 0.0 <= row["gpu_utilization"] <= 1.0
            assert row["prefill_frac"] < row["decode_frac"]

    def test_figure6_hotpotqa_idle_exceeds_webshop_idle(self, study):
        rows = {(r["benchmark"], r["agent"]): r for r in figure6(study=study).rows()}
        assert rows[("hotpotqa", "react")]["idle_frac"] > rows[("webshop", "react")]["idle_frac"]

    def test_figure8_token_composition(self, study):
        rows = {(r["benchmark"], r["agent"]): r for r in figure8(study=study).rows()}
        react = rows[("hotpotqa", "react")]
        cot = rows[("hotpotqa", "cot")]
        assert react["input_total"] > cot["input_total"]
        assert react["tool_history"] > 0
        assert cot["tool_history"] == 0

    def test_figure7_agent_distributions_wider_than_chatbot(self):
        fig = figure7(num_tasks=6)
        rows = {row["workload"]: row for row in fig.rows()}
        assert rows["hotpotqa_react"]["p95_s"] > rows["sharegpt_chatbot"]["p95_s"]
        histogram = fig.histogram("sharegpt_chatbot")
        assert sum(histogram.values()) == 6


class TestSweepFigures:
    def test_figure14_accuracy_non_decreasing_with_budget(self):
        fig = figure14(budgets={"hotpotqa": (2, 6, 12)}, num_tasks=6)
        rows = [row for row in fig.rows() if row["benchmark"] == "hotpotqa"]
        assert rows[-1]["accuracy"] >= rows[0]["accuracy"] - 0.01
        assert rows[-1]["p95_latency_s"] >= rows[0]["p95_latency_s"]

    def test_figure14_markers_are_selected(self):
        fig = figure14(budgets={"hotpotqa": (2, 6, 12)}, num_tasks=4)
        assert fig.best_accuracy(workload="hotpotqa") is not None
        assert fig.best_efficiency(workload="hotpotqa") is not None

    def test_figure15_zero_shot_is_worst(self):
        fig = figure15(counts=(0, 2, 4), benchmarks=("hotpotqa",), num_tasks=6)
        accuracy = {
            row["num_few_shot"]: row["accuracy"]
            for row in fig.rows()
            if row["benchmark"] == "hotpotqa"
        }
        assert accuracy[2] >= accuracy[0]

    def test_figure13_contains_all_supported_agents(self):
        fig = figure13(benchmarks=("hotpotqa",), num_tasks=3)
        agents = {row["agent"] for row in fig.rows() if row["benchmark"] == "hotpotqa"}
        assert agents == {"react", "reflexion", "lats", "llmcompiler"}
        rows = fig.rows()
        assert all(0 <= row["efficiency_norm"] <= 1 for row in rows)


class TestServingFigures:
    def test_figure12_prefix_caching_reduces_memory(self):
        fig = figure12(num_requests=10)
        assert fig.reduction("hotpotqa", "avg_bytes") > 0
        assert fig.reduction("webshop", "max_bytes") >= 0
        rows = fig.rows()
        assert len(rows) == 4


class TestEnergyTables:
    @pytest.fixture(scope="class")
    def table3_result(self):
        return table3(models=("8b",), num_tasks=3)

    def test_table3_contains_baseline_and_agents(self, table3_result):
        workloads = [row["workload"] for row in table3_result.rows()]
        assert workloads == ["sharegpt", "reflexion", "lats"]

    def test_table3_agents_cost_more_than_sharegpt(self, table3_result):
        baseline, *agents = table3_result.rows()
        for row in agents:
            assert row["latency_s"] > baseline["latency_s"]
            assert row["energy_wh_per_query"] > baseline["energy_wh_per_query"]
            assert row["energy_x_sharegpt"] > 3.0

    def test_table4_power_scales_linearly_with_traffic(self, table3_result):
        result = table4(table3_result=table3_result)
        reflexion_small = result.power_for("reflexion-8b", CHATGPT_QUERIES_PER_DAY)
        reflexion_large = result.power_for("reflexion-8b", 13.7e9)
        assert reflexion_large.power_watts / reflexion_small.power_watts == pytest.approx(
            13.7e9 / CHATGPT_QUERIES_PER_DAY, rel=1e-6
        )

    def test_table4_rows_and_formatting(self, table3_result):
        result = table4(table3_result=table3_result)
        assert len(result.rows()) == 6  # 3 workloads x 2 traffic levels
        assert "Table IV" in result.format()
