"""The engine's step history: typed columns read as a sequence of records.

``LLMEngine.step_records`` stores steps as columns and builds each
:class:`EngineStepRecord` as it is read.  These tests hold it to the list
of records it stands for: the sequence protocol behaves as on that list,
and every ``runtime_breakdown`` / ``kv_memory_stats`` window -- whole
history or cut anywhere, read between two events while a decode run is in
flight or after the engine drained -- equals a brute-force scan of
``list(engine.step_records)`` with the float expressions the engine
used when it kept a list.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import EngineConfig, LLMClient, LLMEngine
from repro.llm.request import reset_request_ids
from repro.sim import Environment

from tests.test_cluster_and_policies import tiny_kv_engine_config
from tests.test_decode_fast_forward import user_prompt

INF = float("inf")


def reference_windows(engine: LLMEngine, start: float, end):
    """``runtime_breakdown`` and ``kv_memory_stats`` over ``[start, end]``,
    scanning every record in order."""
    end = end if end is not None else INF
    breakdown = {"prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0}
    total_time = 0.0
    weighted = 0.0
    maximum = 0.0
    for record in list(engine.step_records):
        record_end = record.start + record.duration
        overlap = min(record_end, end) - max(record.start, start)
        if overlap > 0:
            breakdown[record.kind] += overlap
            total_time += overlap
            weighted += record.kv_bytes_active * overlap
            maximum = max(maximum, record.kv_bytes_active)
    if engine._idle_since is not None:
        overlap = min(engine.env.now, end) - max(engine._idle_since, start)
        if overlap > 0:
            breakdown["idle"] += overlap
    average = weighted / total_time if total_time > 0 else 0.0
    return breakdown, {"average_bytes": average, "max_bytes": maximum}


def assert_windows_match(engine: LLMEngine, bounds):
    records = list(engine.step_records)
    points = [0.0] + [record.start for record in records] + [
        record.start + record.duration for record in records
    ]
    for first, width, cut in bounds:
        start = points[first % len(points)] + cut
        end = None if width is None else start + width
        observed = (engine.runtime_breakdown(start, end), engine.kv_memory_stats(start, end))
        assert observed == reference_windows(engine, start, end), (start, end)


requests = st.lists(
    st.tuples(
        st.floats(0.0, 3.0),  # arrival
        st.integers(0, 2),  # shared prefix stream
        st.integers(1, 300),  # prompt tokens
        st.integers(1, 160),  # output tokens
    ),
    min_size=1,
    max_size=6,
)
windows = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.one_of(st.none(), st.floats(0.0, 4.0)),
        st.sampled_from([0.0, 1e-3, 0.25]),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    requests=requests,
    tight_kv=st.booleans(),
    reads=st.lists(st.tuples(st.integers(1, 60), windows), max_size=4),
    final=windows,
)
def test_windows_equal_a_scan_of_the_records(requests, tight_kv, reads, final):
    reset_request_ids()
    env = Environment()
    engine = LLMEngine(env, tiny_kv_engine_config(40) if tight_kv else EngineConfig())
    client = LLMClient(env, engine)

    def issue(arrival, stream, prompt_tokens, output_tokens):
        yield env.timeout(arrival)
        yield client.generate(
            user_prompt(engine, f"prefix{stream}", prompt_tokens), output_tokens=output_tokens
        )

    for request in requests:
        env.process(issue(*request))
    # Reads between events see the engine mid-run, and each read of the
    # whole history folds only the records added since the last one.
    for gap, bounds in reads:
        for _ in range(gap):
            if env.peek() == INF:
                break
            env.step()
        assert_windows_match(engine, bounds + [(0, None, 0.0)])
    env.run()
    assert_windows_match(engine, final + [(0, None, 0.0)])


def test_the_view_reads_as_the_list_of_its_records():
    env = Environment()
    engine = LLMEngine(env, EngineConfig())
    client = LLMClient(env, engine)

    def issue(index):
        yield env.timeout(2.0 * index)
        yield client.generate(user_prompt(engine, f"view{index}", 100), output_tokens=40)

    for index in range(3):
        env.process(issue(index))
    env.run()
    view = engine.step_records
    records = list(view)
    assert len(view) == len(records) > 40
    assert {record.kind for record in records} == {"prefill", "decode", "idle"}
    assert view == records and records == view
    assert view[0] == records[0] and view[-1] == records[-1]
    assert view[5:20:3] == records[5:20:3]
    assert [dataclasses.astuple(record) for record in view] == [
        dataclasses.astuple(record) for record in records
    ]
    assert view != records[:-1]
    assert not hasattr(view, "append")
