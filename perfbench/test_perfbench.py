"""Tests of the benchmark itself, at tiny workload sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, run
from perfbench.layers import UNATTRIBUTED, Attribution
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TINY = 0.02


def benchmark_names(kind: str) -> set:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in config[kind]}


def run_main(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run(workload, capsys):
    result = run_main(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", "1", "--scale", str(TINY),
    )
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == benchmark_names("per_layer")
    assert metrics["trace.unattributed_share"] < 0.05
    assert metrics["engine.steps"] > 0 and metrics["kv.allocator_ops"] > 0


def test_untraced_smoke_run(capsys):
    result = run_main(
        capsys, "--workload", "fleet16", "--seed", "3", "--seconds", "0.1",
        "--trace", "0", "--scale", str(TINY),
    )
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == benchmark_names("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_and_digest_repeat(workload):
    first = measure.run_pass(WORKLOADS[workload], 5, TINY)
    second = measure.run_pass(WORKLOADS[workload], 5, TINY)
    assert first.problems == [] and second.problems == []
    assert first.counters == second.counters
    assert first.digest == second.digest
    other_seed = measure.run_pass(WORKLOADS[workload], 6, TINY)
    assert other_seed.digest != first.digest


def test_conservation_failure_is_reported(monkeypatch):
    original = measure._add_system

    def leaky(totals, system):
        original(totals, system)
        totals["generated"] += 1

    monkeypatch.setattr(measure, "_add_system", leaky)
    outcome = measure.run_pass(WORKLOADS["fleet16"], 5, TINY)
    assert any("engines generated" in problem for problem in outcome.problems)


def test_foreign_time_goes_to_the_caller_layer(tmp_path):
    package = tmp_path / "repro"
    scheduler = (str(package / "llm" / "scheduler.py"), 1, "schedule")
    kv = (str(package / "llm" / "kvcache.py"), 1, "allocate")
    builtin = ("~", 0, "<built-in method builtins.len>")
    harness = ("bench.py", 1, "main")
    stats = {
        harness: (1, 1, 0.5, 5.0, {}),
        scheduler: (2, 2, 2.0, 3.0, {harness: (2, 2, 2.0, 3.0)}),
        kv: (1, 1, 1.0, 1.5, {scheduler: (1, 1, 1.0, 1.5)}),
        builtin: (6, 6, 1.5, 1.5, {scheduler: (4, 4, 1.0, 1.0), kv: (2, 2, 0.5, 0.5)}),
    }
    attribution = Attribution(stats, str(package))
    assert attribution.self_s["scheduler"] == pytest.approx(3.0)
    assert attribution.self_s["kv"] == pytest.approx(1.5)
    assert attribution.self_s[UNATTRIBUTED] == pytest.approx(0.5)
    assert attribution.calls["scheduler"] == 2 and attribution.calls["kv"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
