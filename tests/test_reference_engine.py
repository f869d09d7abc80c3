"""``LLMEngine`` equals an independent per-token reference engine.

``tests/reference/engine.py`` implements "One engine, step by step" in
``docs/ARCHITECTURE.md`` and nothing else, one token per loop iteration,
with its own scheduler, prefix cache and request model.  The property test
drives it and ``LLMEngine`` (one simulation process per request, submitting
at its arrival) with the same drawn open-loop trace and requires ``==`` on
everything both produce: every request's timings and sizes, every step
record field for field, the energy by power state, the preemption, eviction
and prefix-hit counts, and reads taken mid-run from other processes.

Allocator op counts are not compared: they name the production allocator's
own methods.  What those ops cause -- active blocks in every record and
read, evictions, hits -- is compared instead.

Arrival and read times are drawn as floats, so none lands on a step's end
to the last bit; that tie is pinned in ``tests/test_decode_fast_forward.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.llm import EngineConfig, LLMEngine
from repro.llm.engine import EngineStepRecord
from repro.llm.kvcache import KVCacheConfig
from repro.llm.request import LLMRequest, SamplingParams
from repro.llm.scheduler import SchedulerConfig
from repro.llm.tokenizer import Prompt, SegmentKind, SyntheticTokenizer, TokenSpan
from repro.sim import Environment

from tests.reference.engine import ReferenceConfig, ReferenceEngine, StepRecord, TraceRequest
from tests.test_cluster_and_policies import tiny_kv_engine_config

READS = ("queues", "kv", "energy")
_TOKENIZER = SyntheticTokenizer()


def ids(stream: str, count: int) -> Tuple[int, ...]:
    return _TOKENIZER.synthetic_tokens(stream, count)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One engine configuration, an open-loop trace and timed reads."""

    trace: Tuple[TraceRequest, ...]
    num_blocks: Optional[int] = None  # None: the hardware's whole KV budget
    enable_prefix_caching: bool = True
    policy: str = "fcfs"
    max_num_seqs: int = 256
    max_num_batched_tokens: int = 8192
    reads: Tuple[Tuple[float, str], ...] = ()

    def engine_config(self) -> EngineConfig:
        base = EngineConfig() if self.num_blocks is None else tiny_kv_engine_config(self.num_blocks)
        return dataclasses.replace(
            base,
            enable_prefix_caching=self.enable_prefix_caching,
            scheduler=SchedulerConfig(
                policy=self.policy,
                max_num_seqs=self.max_num_seqs,
                max_num_batched_tokens=self.max_num_batched_tokens,
            ),
        )

    def reference_config(self) -> ReferenceConfig:
        config = self.engine_config()
        return ReferenceConfig(
            model=config.model,
            cluster=config.resolved_cluster(),
            block_size=config.block_size,
            enable_prefix_caching=config.enable_prefix_caching,
            policy=config.scheduler.policy,
            max_num_seqs=config.scheduler.max_num_seqs,
            max_num_batched_tokens=config.scheduler.max_num_batched_tokens,
        )


def run_engine(scenario: Scenario):
    """The trace through ``LLMEngine``; returns (engine, requests, reads)."""
    env = Environment()
    engine = LLMEngine(env, scenario.engine_config())
    requests = [
        LLMRequest(
            Prompt([TokenSpan(SegmentKind.USER, item.prompt)]),
            SamplingParams(output_tokens=item.output_tokens),
            metadata={"priority": item.priority},
        )
        for item in scenario.trace
    ]

    def arrive(request, at):
        yield env.timeout_at(at)
        engine.submit(request)

    values = [None] * len(scenario.reads)

    def read(index, at, what):
        yield env.timeout_at(at)
        if what == "queues":
            waiting, running = engine.request_queues()
            values[index] = (len(waiting), tuple(r.num_output_tokens for r in running))
        elif what == "kv":
            values[index] = engine.kv_utilization()
        else:
            values[index] = engine.energy_snapshot()

    for request, item in zip(requests, scenario.trace):
        env.process(arrive(request, item.arrival))
    for index, (at, what) in enumerate(scenario.reads):
        env.process(read(index, at, what))
    env.run()
    return engine, requests, values


def reference_reads(reference: ReferenceEngine, scenario: Scenario):
    values = []
    for at, what in scenario.reads:
        seen = reference.observe(at)
        if what == "queues":
            values.append((seen.num_waiting, seen.running_outputs))
        elif what == "kv":
            values.append(reference.kv_utilization(at))
        else:
            values.append(seen.energy)
    return values


def assert_engine_equals_reference(scenario: Scenario) -> None:
    engine, requests, reads = run_engine(scenario)
    reference = ReferenceEngine(scenario.reference_config(), scenario.trace).run()

    for request, expected in zip(requests, reference.sequences):
        timings = request.timings
        assert (
            timings.arrival,
            timings.first_scheduled,
            timings.first_token,
            timings.prefill_time,
            timings.decode_time,
            timings.finished,
            request.num_output_tokens,
            request.num_cached_tokens,
        ) == (
            expected.arrival,
            expected.first_scheduled,
            expected.first_token,
            expected.prefill_time,
            expected.decode_time,
            expected.finished,
            expected.num_output_tokens,
            expected.num_cached_tokens,
        ), f"request {expected.index}"
    records = [
        StepRecord(**{name: getattr(record, name) for name in StepRecord._fields})
        for record in engine.step_records
    ]
    assert records == reference.records
    assert engine.energy.joules_by_state == reference.energy.joules_by_state
    assert engine.energy.seconds_by_state == reference.energy.seconds_by_state
    assert engine.scheduler.preemption_count == reference.preemptions
    assert engine.kv_cache.allocator.eviction_count == reference.pool.evictions
    assert engine.kv_cache.cached_token_hits == reference.cached_token_hits
    assert reads == reference_reads(reference, scenario)


@st.composite
def scenarios(draw) -> Scenario:
    """Small engines under KV pressure with shared prompt prefixes.

    Prompts are one of 2-3 shared prefix streams plus a suffix of their
    own, so prefix hits, evictions and preemptions all happen; a prompt is
    cut to the cache's size so every request can be admitted alone.
    """
    num_blocks = draw(st.integers(6, 60))
    config = tiny_kv_engine_config(num_blocks)
    kv = KVCacheConfig.from_hardware(config.model, config.resolved_cluster())
    capacity = kv.num_blocks * kv.block_size
    prefixes = [
        ids(f"prefix{k}", draw(st.integers(0, 80))) for k in range(draw(st.integers(2, 3)))
    ]
    trace = []
    for index in range(draw(st.integers(1, 12))):
        prefix = draw(st.sampled_from(prefixes))
        suffix = ids(f"suffix{index}", draw(st.integers(1, 40)))
        trace.append(
            TraceRequest(
                arrival=draw(st.floats(0.0, 3.0)),
                prompt=(prefix + suffix)[:capacity],
                output_tokens=draw(st.integers(1, 120)),
                priority=draw(st.integers(0, 2)),
            )
        )
    arrivals = {item.arrival for item in trace}
    reads = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 5.0).filter(lambda at: at not in arrivals),
                st.sampled_from(READS),
            ),
            max_size=6,
        )
    )
    return Scenario(
        trace=tuple(trace),
        num_blocks=num_blocks,
        enable_prefix_caching=draw(st.booleans()),
        policy=draw(st.sampled_from(("fcfs", "priority"))),
        max_num_seqs=draw(st.integers(1, 8)),
        max_num_batched_tokens=draw(st.integers(16, 512)),
        reads=tuple(reads),
    )


def reads_at(*times: float) -> Tuple[Tuple[float, str], ...]:
    """One read per time, the kinds in turn: each read is the first since
    the time before it, so no other read's catch-up can cover for it."""
    return tuple((at, READS[index % len(READS)]) for index, at in enumerate(times))


# The five single-engine scenarios of TestFastForwardEquivalence in
# tests/test_decode_fast_forward.py, and one where the LRU order decides a
# later hit.
SINGLE_REQUEST = Scenario(
    trace=(TraceRequest(0.0, ids("solo", 200), 150),),
    reads=reads_at(0.5, 0.9, 1.3, 1.7, 2.2, 2.9),
)
CONCURRENT_BATCH = Scenario(
    trace=tuple(
        TraceRequest(0.0, ids(f"batch{index}", 120 + 16 * index), 90 + 11 * index)
        for index in range(5)
    ),
    reads=reads_at(0.3, 0.8, 1.7, 2.4),
)
MID_DECODE_ARRIVALS = Scenario(
    trace=(TraceRequest(0.0, ids("early", 150), 300),)
    + tuple(TraceRequest(at, ids(f"late{index}", 90), 40) for index, at in enumerate((0.7, 1.3, 2.9))),
    reads=reads_at(0.71, 1.5, 2.1, 3.3, 4.4),
)
KV_PRESSURE = Scenario(
    trace=tuple(TraceRequest(0.0, ids(f"pressure{index}", 96), 180) for index in range(3)),
    num_blocks=40,
    reads=reads_at(1.0, 1.6, 2.5, 4.0, 5.5),
)
PREFIX_REUSE = Scenario(
    trace=(
        TraceRequest(0.0, ids("shared", 400), 64),
        TraceRequest(2.0, ids("shared", 400) + ids("turn2", 64), 64),
    ),
    reads=reads_at(1.5, 2.5, 2.7),
)
LRU_DECIDES_A_HIT = Scenario(
    # The first two requests leave three cached blocks each, z's released
    # before x's; the third needs one evicted, and the last hits all of x's
    # only if the least recently released block went.
    trace=(
        TraceRequest(0.0, ids("z", 48) + ids("suffix-a", 1), 1),
        TraceRequest(0.25, ids("x", 48) + ids("suffix-b", 1), 1),
        TraceRequest(0.5, ids("y", 40), 1),
        TraceRequest(1.0, ids("x", 48) + ids("suffix-d", 1), 1),
    ),
    num_blocks=8,
    reads=reads_at(0.1, 0.75, 1.5),
)


@settings(max_examples=150, deadline=None)
@example(SINGLE_REQUEST)
@example(CONCURRENT_BATCH)
@example(MID_DECODE_ARRIVALS)
@example(KV_PRESSURE)
@example(PREFIX_REUSE)
@example(LRU_DECIDES_A_HIT)
@given(scenarios())
def test_engine_equals_reference(scenario):
    assert_engine_equals_reference(scenario)


def test_examples_exercise_the_rules():
    """The explicit examples reach preemption, eviction and prefix hits."""
    pressure = ReferenceEngine(KV_PRESSURE.reference_config(), KV_PRESSURE.trace).run()
    assert pressure.preemptions > 0
    lru = ReferenceEngine(LRU_DECIDES_A_HIT.reference_config(), LRU_DECIDES_A_HIT.trace).run()
    assert lru.pool.evictions > 0
    assert lru.sequences[3].num_cached_tokens == 48
    reuse = ReferenceEngine(PREFIX_REUSE.reference_config(), PREFIX_REUSE.trace).run()
    assert reuse.sequences[1].num_cached_tokens == 400


def test_records_have_the_engines_fields():
    assert [f.name for f in dataclasses.fields(EngineStepRecord)] == list(StepRecord._fields)


# The reference may import the standard library and these pure models only
# (None: any name), so it cannot share the code it checks.
PURE_MODELS = {
    "repro.llm.perf": None,
    "repro.llm.energy": None,
    "repro.llm.models": None,
    "repro.llm.hardware": None,
    "repro.llm.kvcache": {"KVCacheConfig"},
}


def foreign_imports(source: str):
    """Imports in ``source`` outside the standard library and PURE_MODELS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] not in sys.stdlib_module_names
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] in sys.stdlib_module_names:
                continue
            allowed = PURE_MODELS.get(module, ()) if node.level == 0 else ()
            found += [
                f"{module}.{alias.name}"
                for alias in node.names
                if allowed is not None and alias.name not in allowed
            ]
    return found


def test_reference_imports_only_pure_models():
    sources = sorted((Path(__file__).parent / "reference").glob("*.py"))
    assert sources
    for path in sources:
        assert foreign_imports(path.read_text()) == [], path.name
    # The scan sees what it must reject.
    assert foreign_imports("from repro.llm.engine import LLMEngine") == ["repro.llm.engine.LLMEngine"]
    assert foreign_imports("from repro.llm.kvcache import BlockAllocator, KVCacheConfig") == [
        "repro.llm.kvcache.BlockAllocator"
    ]
    assert foreign_imports("import repro.llm.scheduler") == ["repro.llm.scheduler"]
    assert foreign_imports("from repro.llm import PrefixCache") == ["repro.llm.PrefixCache"]
