"""Exact pins of the benchmark's work: digests and deterministic counters.

``perfbench`` times four named workloads, but timings are noisy; the work
behind them is not.  Each pass here runs one workload at seed 1 through
:func:`perfbench.measure.run_pass` and pins its output digest and the
counters that measure algorithmic work, so a change that makes the
simulator do more (or different) work fails exactly, and timing noise
fails nothing.  A change that alters the work on purpose re-pins these
values and states the reason, as with the golden pins.

``kv1k`` never preempts at scale 0.1, so it is also pinned at scale 0.5,
where 545 preemptions re-queue requests at the front of the waiting queue.

Characterization also pins two counts of per-call bookkeeping: the blocks
``block_hashes`` hashes (chains resume after the context an agent's
previous call hashed) and the ``EngineStepRecord``s built inside
``run_experiment`` (none: the step history is columns, read on demand).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro.api
import repro.llm.tokenizer
from repro.llm.engine import EngineStepRecord

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.measure import count_calls, run_pass  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: (workload, scale) -> digest, sim.events, engine.steps,
#: scheduler.preemptions, router.selects, kv.allocator_ops,
#: tokenizer.synthetic_tokens_calls
PINS = {
    ("characterization", 0.1): (
        "1c7b1d590db77f579d078beec0293f59bd27c2460670ef9396cd92f0524a2944",
        3983, 33382, 0, 744, 6937, 956,
    ),
    ("fleet16", 0.1): (
        "e446bf36923040434fd648bfc16470e50a83c77fd6267a04c195968cb58e7da2",
        839, 17578, 0, 90, 1948, 180,
    ),
    ("hetero_sessions", 0.1): (
        "03fead79ec8fb588a9ec1af74d6ffdabfac529998d67169fe4f8e0e866cb239d",
        2161, 16205, 0, 205, 3570, 392,
    ),
    ("kv1k", 0.1): (
        "baa98aaf619a58b98e39c168c5d36278d2898ff6951a1540cd5e1ac403dfcba4",
        2006, 1326, 0, 364, 4275, 699,
    ),
    ("kv1k", 0.5): (
        "396454bfd50733700a02eeb584a5fb420529d9e45a8c43d32df00f25cd5a54d1",
        8384, 1500, 545, 1732, 22417, 3853,
    ),
}


@pytest.mark.parametrize(
    "workload, scale", list(PINS), ids=[f"{w}@{s}" for w, s in PINS]
)
def test_work_is_pinned(workload, scale):
    with count_calls() as calls:
        outcome = run_pass(WORKLOADS[workload], 1, scale)
    assert outcome.problems == []
    counters = outcome.counters
    measured = (
        outcome.digest,
        counters["sim.events"],
        counters["engine.steps"],
        counters["scheduler.preemptions"],
        counters["router.selects"],
        calls["kv.allocator_ops"],
        calls["tokenizer.synthetic_tokens_calls"],
    )
    assert measured == PINS[workload, scale]


#: characterization@0.1, seed 1: blocks hashed, records built in run_experiment.
CHARACTERIZATION_BOOKKEEPING = (11849, 0)


def test_characterization_bookkeeping_is_pinned(monkeypatch):
    counts = {"blocks": 0, "records": 0}
    inside = [False]
    hash_blocks = repro.llm.tokenizer.block_hashes

    def counted_hashes(token_ids, block_size, prefix_hashes=()):
        hashes = hash_blocks(token_ids, block_size, prefix_hashes)
        counts["blocks"] += len(hashes) - len(prefix_hashes)
        return hashes

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "block_hashes", None) is hash_blocks:
            monkeypatch.setattr(module, "block_hashes", counted_hashes)

    build_record = EngineStepRecord.__init__

    def counted_record(self, *args, **kwargs):
        counts["records"] += inside[0]
        build_record(self, *args, **kwargs)

    monkeypatch.setattr(EngineStepRecord, "__init__", counted_record)
    run_experiment = repro.api.run_experiment

    def counted_run(spec):
        inside[0] = True
        try:
            return run_experiment(spec)
        finally:
            inside[0] = False

    monkeypatch.setattr(repro.api, "run_experiment", counted_run)
    outcome = run_pass(WORKLOADS["characterization"], 1, 0.1)
    assert outcome.digest == PINS["characterization", 0.1][0]
    assert (counts["blocks"], counts["records"]) == CHARACTERIZATION_BOOKKEEPING
