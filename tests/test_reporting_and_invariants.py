"""Tests for the reporting helpers plus cross-cutting conservation invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import AgentConfig
from repro.analysis.reporting import format_table, format_value
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment
from repro.core import CharacterizationResult
from repro.llm import EngineConfig, LLMClient, LLMEngine
from repro.llm.energy import EnergyMeter, PowerState
from repro.llm.hardware import cluster_for_model
from repro.llm.models import LLAMA_3_1_8B
from repro.llm.tokenizer import Prompt, SegmentKind
from repro.sim import Environment


class TestFormatting:
    def test_format_value_integers_and_strings(self):
        assert format_value("abc") == "abc"
        assert format_value(3) == "3"

    def test_format_value_float_ranges(self):
        assert format_value(0.0) == "0"
        assert format_value(1234.5) == "1,234"
        assert format_value(12.34) == "12.3"
        assert format_value(0.1234) == "0.123"
        assert format_value(1e-6) == "1.00e-06"

    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["x", "y", "z"]),
                st.one_of(st.integers(-1000, 1000), st.floats(0, 1e6), st.text(max_size=8)),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_format_table_never_crashes(self, rows):
        # Normalise: format_table reads columns from the first row.
        columns = list(rows[0].keys())
        normalised = [{column: row.get(column, "") for column in columns} for row in rows]
        assert format_table(normalised)


class TestEnergyMeter:
    def test_record_negative_duration_rejected(self):
        meter = EnergyMeter(cluster=cluster_for_model(LLAMA_3_1_8B))
        with pytest.raises(ValueError):
            meter.record(PowerState.DECODE, -1.0)

    def test_average_power_between_idle_and_prefill(self):
        cluster = cluster_for_model(LLAMA_3_1_8B)
        meter = EnergyMeter(cluster=cluster)
        meter.record(PowerState.IDLE, 10.0)
        meter.record(PowerState.DECODE, 10.0)
        assert cluster.power_w("idle") < meter.average_power_w < cluster.power_w("prefill")

    def test_window_since_snapshot(self):
        meter = EnergyMeter(cluster=cluster_for_model(LLAMA_3_1_8B))
        meter.record(PowerState.DECODE, 5.0)
        snapshot = meter.snapshot()
        meter.record(PowerState.PREFILL, 2.0)
        window = meter.since(snapshot)
        assert window.seconds_by_state[PowerState.PREFILL] == pytest.approx(2.0)
        assert window.seconds_by_state[PowerState.DECODE] == pytest.approx(0.0)
        assert window.total_joules < meter.total_joules


class TestConservationInvariants:
    """End-to-end bookkeeping invariants of the serving engine."""

    def _run_requests(self, count=4, output_tokens=40):
        env = Environment()
        engine = LLMEngine(env, EngineConfig())
        client = LLMClient(env, engine)

        def proc(index):
            prompt = Prompt()
            prompt.append(engine.tokenizer.span(SegmentKind.USER, f"req{index}", 120))
            result = yield client.generate(prompt, output_tokens=output_tokens)
            return result

        processes = [env.process(proc(index)) for index in range(count)]
        env.run()
        return engine, [process.value for process in processes]

    def test_generated_tokens_match_requests(self):
        engine, results = self._run_requests(count=5, output_tokens=32)
        assert engine.total_generated_tokens == sum(r.output_tokens for r in results)
        step_tokens = sum(record.generated_tokens for record in engine.step_records)
        assert step_tokens == engine.total_generated_tokens

    def test_energy_equals_sum_of_step_energies(self):
        engine, _ = self._run_requests()
        step_joules = sum(record.energy_joules for record in engine.step_records)
        assert step_joules == pytest.approx(engine.energy.total_joules, rel=1e-6)

    def test_busy_time_equals_step_durations(self):
        engine, _ = self._run_requests()
        breakdown = engine.runtime_breakdown()
        busy_from_records = sum(
            record.duration for record in engine.step_records if record.kind != "idle"
        )
        assert breakdown["prefill"] + breakdown["decode"] == pytest.approx(busy_from_records)

    def test_all_requests_completed_and_freed(self):
        engine, results = self._run_requests(count=6)
        assert len(engine.completed_requests) == 6
        assert engine.kv_cache.active_blocks() == 0
        assert engine.scheduler.num_running == 0
        assert engine.scheduler.num_waiting == 0
        assert all(result.e2e_latency > 0 for result in results)


def characterize_react() -> CharacterizationResult:
    """Three single-arrival ReAct/HotpotQA requests on the 8B model, seed 2."""
    spec = ExperimentSpec(
        agent="react",
        workload="hotpotqa",
        model="8b",
        agent_config=AgentConfig(max_iterations=5),
        arrival=ArrivalSpec(process="single", num_requests=3),
        seed=2,
    )
    return run_experiment(spec).characterization


class TestRunnerObservationConsistency:
    def test_observation_energy_matches_power_window(self):
        result = characterize_react()
        for observation in result.observations:
            # Energy over the request window can never exceed prefill power for
            # the whole window nor fall below idle power for the whole window.
            window_seconds = observation.result.e2e_latency
            cluster = cluster_for_model(LLAMA_3_1_8B)
            low = cluster.power_w("idle") * window_seconds / 3600.0
            high = cluster.power_w("prefill") * window_seconds / 3600.0
            assert low * 0.9 <= observation.energy_wh <= high * 1.1

    def test_gpu_window_matches_request_duration(self):
        result = characterize_react()
        for observation in result.observations:
            assert observation.gpu.total == pytest.approx(observation.result.e2e_latency, rel=0.1)
