"""Smoke test of ``scripts/bench_ab.py``, the interleaved A/B tool."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_against_a_reports_every_end_to_end_metric():
    completed = subprocess.run(
        [sys.executable, "scripts/bench_ab.py", "--base", str(ROOT),
         "--workload", "fleet16", "--pairs", "1", "--seconds", "0.1",
         "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert report["healthy"] is True and report["pairs"] == 1
    assert report["outputs_identical"] is True
    assert set(report["metrics"]) == {metric["name"] for metric in config["end_to_end"]}
    for entry in report["metrics"].values():
        assert entry["base"]["median"] > 0 and entry["change"]["median"] > 0
        assert entry["wins"] in (0, 1)
