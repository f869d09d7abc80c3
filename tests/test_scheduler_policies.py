"""Admission-order policy contracts: the index, the tie rule, and vtc.

Every built-in policy owns an index of the waiting queue (``push``,
``push_front``, ``peek``, ``pop``).  The index must admit exactly what the
linear queue scans it replaced admitted: those scans are kept here as the
reference (:class:`ReferenceScan` and its subclasses) and a property test
drives both through the same random operations.  Also pins the tie rule
documented on :class:`~repro.llm.scheduler.SchedulingPolicy` -- ties go to
the earliest-queued request, so all-equal keys reproduce FCFS exactly --
and covers the virtual-token-counter policy: counter accounting through
the on_scheduled/on_complete hooks, deferred newcomer joining, tenant-key
fallback, and least-served-first selection.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import Prompt, SamplingParams
from repro.llm.predictor import DecodeLengthPredictor
from repro.llm.request import LLMRequest
from repro.llm.scheduler import (
    FCFSPolicy,
    PriorityPolicy,
    ShortestJobPolicy,
    VirtualTokenCounterPolicy,
    create_scheduler_policy,
)
from repro.llm.tokenizer import SegmentKind, SyntheticTokenizer

TOKENIZER = SyntheticTokenizer()


def make_request(
    prompt_tokens: int = 32,
    output_tokens: int = 16,
    stream: str = "req",
    metadata: dict | None = None,
) -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, prompt_tokens))
    return LLMRequest(
        prompt=prompt,
        sampling=SamplingParams(output_tokens=output_tokens),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Reference: the linear queue scans the policy indexes replaced
# ---------------------------------------------------------------------------


class ReferenceScan:
    """FCFS by scan: the queue head.

    Each reference scans the whole queue in order and replaces the
    incumbent only on a strict win, so ties go to the earliest-queued
    request.  ``counters`` stays empty for the counter-free policies.
    """

    def __init__(self) -> None:
        self.counters: dict = {}

    def scan(self, waiting) -> int:
        return 0

    def on_scheduled(self, request: LLMRequest) -> None:
        pass

    def on_complete(self, request: LLMRequest) -> None:
        pass


class PriorityScan(ReferenceScan):
    def scan(self, waiting) -> int:
        best_index = 0
        best_priority = None
        for index, request in enumerate(waiting):
            priority = float(request.metadata.get("priority", 0.0))
            if best_priority is None or priority > best_priority:
                best_index, best_priority = index, priority
        return best_index


class ShortestJobScan(ReferenceScan):
    def __init__(self, predictor: DecodeLengthPredictor) -> None:
        super().__init__()
        self.predictor = predictor

    def scan(self, waiting) -> int:
        best_index = 0
        best_cost = None
        for index, request in enumerate(waiting):
            cost = self.predictor.predict(request)
            if best_cost is None or cost < best_cost:
                best_index, best_cost = index, cost
        return best_index


class VirtualTokenCounterScan(ReferenceScan):
    """vtc by scan: every scan joins unseen tenants at the minimum counter."""

    input_weight = 1.0
    output_weight = 2.0

    def _counter_for(self, key: str) -> float:
        counter = self.counters.get(key)
        if counter is None:
            counter = min(self.counters.values(), default=0.0)
            self.counters[key] = counter
        return counter

    def scan(self, waiting) -> int:
        best_index = 0
        best_counter = None
        for index, request in enumerate(waiting):
            key = VirtualTokenCounterPolicy._tenant_key(request)
            counter = self._counter_for(key)
            if best_counter is None or counter < best_counter:
                best_index, best_counter = index, counter
        return best_index

    def on_scheduled(self, request: LLMRequest) -> None:
        key = VirtualTokenCounterPolicy._tenant_key(request)
        self.counters[key] = (
            self._counter_for(key) + self.input_weight * request.num_prompt_tokens
        )

    def on_complete(self, request: LLMRequest) -> None:
        key = VirtualTokenCounterPolicy._tenant_key(request)
        self.counters[key] = (
            self._counter_for(key) + self.output_weight * request.num_output_tokens
        )


def policy_and_reference(name: str):
    """A built-in policy and its reference scan, sharing one predictor."""
    if name == "sjf-noisy":
        policy = ShortestJobPolicy()
        policy.predictor = DecodeLengthPredictor(0.5, seed=7)
        return policy, ShortestJobScan(policy.predictor)
    policy = create_scheduler_policy(name)
    if name == "priority":
        return policy, PriorityScan()
    if name == "sjf-by-predicted-decode":
        return policy, ShortestJobScan(policy.predictor)
    if name == "vtc":
        return policy, VirtualTokenCounterScan()
    return policy, ReferenceScan()


#: Tenant labels: tenants, a tenant that also has a class, class-only, none.
LABELS = (
    {"tenant": "u0"},
    {"tenant": "u1"},
    {"tenant": "u2"},
    {"tenant": "u3", "traffic_class": "chat"},
    {"traffic_class": "chat"},
    {"traffic_class": "agent"},
    {},
)

OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ("push", "push", "push_front", "peek", "pop", "on_scheduled", "on_complete")
        ),
        st.integers(min_value=0, max_value=2**20),
    ),
    max_size=80,
)


class TestIndexMatchesScan:
    """Each index admits what the linear scan admits, at every step."""

    @pytest.mark.parametrize(
        "name", ["fcfs", "priority", "sjf-by-predicted-decode", "sjf-noisy", "vtc"]
    )
    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_index_admits_like_the_scan(self, name, operations):
        policy, reference = policy_and_reference(name)
        waiting = deque()  # queue order, as Scheduler.waiting keeps it
        seen = []
        admitted = []

        def new_request(draw: int) -> LLMRequest:
            metadata = dict(LABELS[draw % len(LABELS)])
            metadata["priority"] = float(draw // 7 % 3)
            request = make_request(
                prompt_tokens=8 * (1 + draw // 21 % 4),
                output_tokens=4 * (1 + draw // 84 % 3),
                stream=f"r{len(seen)}",
                metadata=metadata,
            )
            seen.append(request)
            return request

        for operation, draw in operations:
            if operation == "push":
                request = new_request(draw)
                waiting.append(request)
                policy.push(request)
            elif operation == "push_front":
                # Preemption re-queues an admitted request; a fresh one
                # also exercises a push_front tenant with no counter yet.
                if admitted:
                    request = admitted.pop(draw % len(admitted))
                else:
                    request = new_request(draw)
                waiting.appendleft(request)
                policy.push_front(request)
            elif operation in ("peek", "pop"):
                if not waiting:
                    continue
                expected = waiting[reference.scan(waiting)]
                if operation == "peek":
                    assert policy.peek() is expected
                else:
                    waiting.remove(expected)
                    assert policy.pop() is expected
                    admitted.append(expected)
            elif seen:
                # Hooks may name any request, queued ones included.
                request = seen[draw % len(seen)]
                if operation == "on_scheduled":
                    reference.on_scheduled(request)
                    policy.on_scheduled(request, 0.0)
                else:
                    request.num_output_tokens += draw % 5
                    reference.on_complete(request)
                    policy.on_complete(request, 0.0)
        while waiting:
            expected = waiting[reference.scan(waiting)]
            waiting.remove(expected)
            assert policy.pop() is expected
        assert getattr(policy, "counters", {}) == reference.counters


class TestDeterminismContract:
    """All-equal keys must reproduce FCFS: ties go to the earliest-queued."""

    def _drain(self, policy, requests):
        for request in requests:
            policy.push(request)
        return [policy.pop() for _ in requests]

    def test_priority_all_equal_is_fcfs(self):
        requests = [make_request(stream=f"r{i}") for i in range(6)]
        assert self._drain(PriorityPolicy(), list(requests)) == requests

    def test_sjf_all_equal_is_fcfs(self):
        # Identical predicted decode lengths -> arrival order preserved.
        requests = [
            make_request(stream=f"r{i}", output_tokens=16) for i in range(6)
        ]
        assert self._drain(ShortestJobPolicy(), list(requests)) == requests

    def test_vtc_all_equal_is_fcfs(self):
        # One shared tenant key (no metadata) -> every counter identical.
        requests = [make_request(stream=f"r{i}") for i in range(6)]
        assert self._drain(VirtualTokenCounterPolicy(), list(requests)) == requests

    def test_vtc_equal_counters_across_tenants_is_fcfs(self):
        requests = [
            make_request(stream=f"r{i}", metadata={"tenant": f"u{i}"})
            for i in range(6)
        ]
        assert self._drain(VirtualTokenCounterPolicy(), list(requests)) == requests

    def test_priority_strict_win_required(self):
        # The LAST highest-priority request must not displace the first.
        requests = [
            make_request(stream="a", metadata={"priority": 1.0}),
            make_request(stream="b", metadata={"priority": 1.0}),
            make_request(stream="c", metadata={"priority": 0.0}),
        ]
        policy = PriorityPolicy()
        for request in requests:
            policy.push(request)
        assert requests.index(policy.peek()) == 0


class TestVirtualTokenCounter:
    def test_registered(self):
        assert isinstance(create_scheduler_policy("vtc"), VirtualTokenCounterPolicy)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="weights"):
            VirtualTokenCounterPolicy(input_weight=-1.0)

    def test_least_served_tenant_goes_first(self):
        policy = VirtualTokenCounterPolicy()
        whale = make_request(prompt_tokens=64, stream="w", metadata={"tenant": "whale"})
        tail = make_request(prompt_tokens=8, stream="t", metadata={"tenant": "tail"})
        policy.on_scheduled(tail, 0.0)  # tail charged 8 tokens of prefill
        policy.on_scheduled(whale, 0.0)  # whale joins at 8, charged 64 more
        waiting = [
            make_request(stream="w2", metadata={"tenant": "whale"}),
            make_request(stream="t2", metadata={"tenant": "tail"}),
        ]
        for request in waiting:
            policy.push(request)
        assert waiting.index(policy.peek()) == 1  # tail has the lower counter

    def test_counters_charge_input_and_output(self):
        policy = VirtualTokenCounterPolicy(input_weight=1.0, output_weight=2.0)
        request = make_request(prompt_tokens=10, stream="x", metadata={"tenant": "u1"})
        policy.on_scheduled(request, 0.0)
        assert policy.counters["u1"] == pytest.approx(10.0)
        request.num_output_tokens += 3
        policy.on_complete(request, 1.0)
        assert policy.counters["u1"] == pytest.approx(10.0 + 2.0 * 3)

    def test_newcomer_joins_at_live_minimum(self):
        policy = VirtualTokenCounterPolicy()
        # b joins at 0 and is charged 40; a joins at 40 and is charged 60.
        policy.on_scheduled(
            make_request(prompt_tokens=40, stream="b1", metadata={"tenant": "b"}), 0.0
        )
        policy.on_scheduled(
            make_request(prompt_tokens=60, stream="a1", metadata={"tenant": "a"}), 0.0
        )
        assert policy.counters == {"a": 100.0, "b": 40.0}
        fresh = make_request(stream="f", metadata={"tenant": "fresh"})
        waiting = [make_request(stream="a2", metadata={"tenant": "a"}), fresh]
        for request in waiting:
            policy.push(request)
        assert waiting.index(policy.peek()) == 1
        # Joined at min(100, 40), not zero: no unbounded idle credit.
        assert policy.counters["fresh"] == pytest.approx(40.0)

    def test_newcomer_joins_at_the_next_peek_not_at_push(self):
        policy = VirtualTokenCounterPolicy(input_weight=1.0, output_weight=2.0)
        served = make_request(prompt_tokens=10, stream="s", metadata={"tenant": "a"})
        policy.on_scheduled(served, 0.0)
        policy.push(make_request(stream="n", metadata={"tenant": "new"}))
        served.num_output_tokens += 5
        policy.on_complete(served, 1.0)  # the minimum moves 10 -> 20
        assert "new" not in policy.counters
        policy.peek()
        assert policy.counters["new"] == 20.0

    def test_traffic_class_fallback(self):
        policy = VirtualTokenCounterPolicy()
        request = make_request(stream="c", metadata={"traffic_class": "chat"})
        policy.on_scheduled(request, 0.0)
        assert "chat" in policy.counters

    def test_preemption_recharges_prefill(self):
        policy = VirtualTokenCounterPolicy(input_weight=1.0, output_weight=0.0)
        request = make_request(prompt_tokens=10, stream="p", metadata={"tenant": "u"})
        policy.on_scheduled(request, 0.0)
        policy.on_scheduled(request, 1.0)  # re-admission after preemption
        assert policy.counters["u"] == pytest.approx(20.0)
