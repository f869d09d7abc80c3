"""Continuous-batching scheduler with pluggable admission policies.

The scheduler decides, before each engine step, whether the step is a
*prefill* step (admitting waiting requests, which blocks decoding of already
running requests -- the contention the paper highlights) or a *decode* step
(one token for every running sequence).  Admission order is delegated to a
:class:`SchedulingPolicy` selected by name through a registry
(``fcfs`` | ``priority`` | ``sjf-by-predicted-decode`` | ``vtc``), which owns
an index of the waiting queue, and is bounded by a per-step token budget, a
maximum batch size, and KV-cache capacity.  When the cache is exhausted
mid-decode the most recently admitted request is preempted with recompute
semantics.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import Deque, Dict, List, Optional, Set, Tuple, Type

from repro.llm.predictor import DecodeLengthPredictor
from repro.llm.prefix_cache import PrefixCache
from repro.llm.request import LLMRequest, RequestState
from repro.registry import PolicyRegistry


class StepKind(str, Enum):
    PREFILL = "prefill"
    DECODE = "decode"
    # Chunked prefill co-schedules prompt chunks with decode tokens in one
    # roofline step (vLLM's chunked-prefill batch composition).
    MIXED = "mixed"


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission-control knobs (names follow vLLM)."""

    max_num_seqs: int = 256
    max_num_batched_tokens: int = 8192
    # Admission-order policy; must name an entry in the scheduling-policy
    # registry (``fcfs`` is vLLM 0.6.x's default behaviour).
    policy: str = "fcfs"
    # Relative error of the decode-length predictor used by prediction-driven
    # policies (0.0 = perfect oracle); seeded so predictions are reproducible.
    predictor_error: float = 0.0
    predictor_seed: int = 0


# ---------------------------------------------------------------------------
# Admission-order policies
# ---------------------------------------------------------------------------


class SchedulingPolicy:
    """Owns the index of the waiting queue that decides who is admitted next.

    The scheduler hands every queued request to the policy -- :meth:`push`
    on arrival, :meth:`push_front` when preemption re-queues it -- and asks
    :meth:`peek` for the next candidate during a prefill pass, calling
    :meth:`pop` only once the candidate's KV allocation succeeded.  A failed
    allocation or a token-budget stop leaves the index untouched, so the
    next pass peeks the same candidate in O(1) instead of rescanning the
    queue.  The scheduler keeps its own queue-order view
    (``Scheduler.waiting``); policies never see it.

    A request's key is fixed at push and nothing reads the clock, so the
    candidate changes only when the index or the policy's own counters do.
    The engine's decode fast-forward relies on this: a prefill attempt that
    failed for lack of KV blocks keeps failing, on the same candidate, at
    every token boundary of a run (a run is cut by arrivals, and the hooks
    fire only at the engine's own wake-ups).

    **Tie rule**: ties go to the earliest-queued request.  :meth:`push`
    hands out increasing sequence numbers and :meth:`push_front` decreasing
    negative ones, so a preempted request sits ahead of every request with
    an equal key, and a policy whose keys are all equal behaves exactly like
    :class:`FCFSPolicy`.  Regression-pinned in
    ``tests/test_scheduler_policies.py``.

    Stateful policies (``vtc``) additionally receive feedback through the
    :meth:`on_scheduled` / :meth:`on_complete` hooks, which the scheduler
    fires when a request is admitted to prefill and when it finishes; the
    base implementations are no-ops.
    """

    name = "base"

    def push(self, request: LLMRequest) -> None:
        """Queue ``request`` behind every request already queued."""
        raise NotImplementedError

    def push_front(self, request: LLMRequest) -> None:
        """Re-queue a preempted ``request`` ahead of every queued request."""
        raise NotImplementedError

    def peek(self) -> LLMRequest:
        """The request to admit next (the queue must be non-empty)."""
        raise NotImplementedError

    def pop(self) -> LLMRequest:
        """Remove and return the request :meth:`peek` returns."""
        raise NotImplementedError

    def on_scheduled(self, request: LLMRequest, now: float) -> None:
        """``request`` was admitted to a prefill step (no-op by default).

        Fired on every admission, including re-admission after preemption --
        a recompute-style preemption re-pays the prefill, and accounting
        policies are expected to charge for it again.
        """

    def on_complete(self, request: LLMRequest, now: float) -> None:
        """``request`` finished decoding (no-op by default)."""


class FCFSPolicy(SchedulingPolicy):
    """First-come-first-served: always the head of the queue."""

    name = "fcfs"

    def __init__(self) -> None:
        self._queue: Deque[LLMRequest] = deque()

    def push(self, request: LLMRequest) -> None:
        self._queue.append(request)

    def push_front(self, request: LLMRequest) -> None:
        self._queue.appendleft(request)

    def peek(self) -> LLMRequest:
        return self._queue[0]

    def pop(self) -> LLMRequest:
        return self._queue.popleft()


class _KeyedHeapPolicy(SchedulingPolicy):
    """Smallest ``_key`` first, from a heap of (key, sequence number, request)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, LLMRequest]] = []
        self._back = count()
        self._front = count(-1, -1)

    def _key(self, request: LLMRequest) -> float:
        raise NotImplementedError

    def push(self, request: LLMRequest) -> None:
        heappush(self._heap, (self._key(request), next(self._back), request))

    def push_front(self, request: LLMRequest) -> None:
        heappush(self._heap, (self._key(request), next(self._front), request))

    def peek(self) -> LLMRequest:
        return self._heap[0][2]

    def pop(self) -> LLMRequest:
        return heappop(self._heap)[2]


class PriorityPolicy(_KeyedHeapPolicy):
    """Highest ``metadata["priority"]`` first; FCFS among equal priorities.

    Priorities are read once, at push, from
    ``LLMRequest.metadata["priority"]``, which the submitter (a client,
    workload, or admission layer) must set; the built-in agents do not
    assign priorities yet, so without an assigning caller this policy
    degenerates to FCFS (every request scores 0.0).
    """

    name = "priority"

    def _key(self, request: LLMRequest) -> float:
        return -float(request.metadata.get("priority", 0.0))


class ShortestJobPolicy(_KeyedHeapPolicy):
    """Shortest predicted decode first (FCFS tie-break).

    Decode lengths come from a :class:`DecodeLengthPredictor`, asked once
    per queued request at push: exact by default (the idealized upper bound
    for SJF schedulers driven by learned output-length prediction), noisy
    when the scheduler config sets a ``predictor_error`` -- so scheduler
    studies no longer have to assume a perfect oracle.
    """

    name = "sjf-by-predicted-decode"

    def __init__(self) -> None:
        super().__init__()
        self.predictor = DecodeLengthPredictor()

    def _key(self, request: LLMRequest) -> float:
        return self.predictor.predict(request)


class VirtualTokenCounterPolicy(SchedulingPolicy):
    """Virtual Token Counter (VTC) fair scheduling across tenants.

    Each tenant carries a virtual counter of the service (weighted tokens)
    it has received; the waiting request whose tenant has the *lowest*
    counter is admitted next, so tenants that have been served least go
    first and a whale cannot starve the tail.  Counters advance through the
    scheduler's feedback hooks: :meth:`on_scheduled` charges
    ``input_weight * prompt tokens`` when a request enters prefill
    (re-admission after preemption charges again -- recompute preemption
    re-pays the prefill), and :meth:`on_complete` charges
    ``output_weight * output tokens`` when it finishes.  Output tokens
    weigh more than input tokens by default, mirroring their higher
    serving cost.

    The tenant key is ``metadata["tenant"]`` (stamped by the serving driver
    for tenanted arrivals), falling back to ``metadata["traffic_class"]``
    so untenanted mixtures still get per-class fairness, then to a single
    shared key -- under which VTC degenerates to FCFS exactly (tie rule).

    A tenant first queued mid-run joins, at the next :meth:`peek`, at the
    *minimum* counter over every tenant seen so far rather than at zero:
    newcomers get immediate service without being handed a deep credit
    that would starve everyone else while they catch up.  Counters are
    never dropped and only grow.

    The index is a FIFO per tenant plus a heap of the tenants with queued
    requests keyed on (counter, head sequence number).  An entry goes stale
    when its tenant's counter or head moves; the change pushes a fresh
    entry and :meth:`peek` discards stale ones.  A second heap holds one
    (counter, tenant) entry per tenant seen; because counters only grow,
    a stale entry is a lower bound, refreshed when it reaches the top, so
    the top is the minimum once it is current.
    """

    name = "vtc"

    def __init__(self, input_weight: float = 1.0, output_weight: float = 2.0):
        if input_weight < 0 or output_weight < 0:
            raise ValueError("vtc token weights must be >= 0")
        self.input_weight = input_weight
        self.output_weight = output_weight
        self.counters: Dict[str, float] = {}
        # tenant -> its queued (sequence number, request) pairs, in queue
        # order; a tenant with nothing queued has no entry.
        self._queues: Dict[str, Deque[Tuple[int, LLMRequest]]] = defaultdict(deque)
        self._heads: List[Tuple[float, int, str]] = []
        self._floor: List[Tuple[float, str]] = []
        # Queued tenants with no counter yet, in push order.
        self._joining: List[str] = []
        self._back = count()
        self._front = count(-1, -1)

    @staticmethod
    def _tenant_key(request: LLMRequest) -> str:
        tenant = request.metadata.get("tenant")
        if tenant is not None:
            return str(tenant)
        traffic_class = request.metadata.get("traffic_class")
        if traffic_class is not None:
            return str(traffic_class)
        return ""

    def push(self, request: LLMRequest) -> None:
        key = self._tenant_key(request)
        queue = self._queues[key]
        queue.append((next(self._back), request))
        if len(queue) == 1:
            self._index_head(key, queue)

    def push_front(self, request: LLMRequest) -> None:
        key = self._tenant_key(request)
        queue = self._queues[key]
        queue.appendleft((next(self._front), request))
        self._index_head(key, queue)

    def _index_head(self, key: str, queue: Deque[Tuple[int, LLMRequest]]) -> None:
        counter = self.counters.get(key)
        if counter is None:
            self._joining.append(key)
        else:
            heappush(self._heads, (counter, queue[0][0], key))

    def peek(self) -> LLMRequest:
        if self._joining:
            # Deferred joins: a hook since the push may have raised the
            # minimum the newcomers join at.
            minimum = self._minimum()
            for key in self._joining:
                if key not in self.counters:
                    self._set_counter(key, minimum)
            self._joining.clear()
        heads = self._heads
        while True:
            counter, seq, key = heads[0]
            queue = self._queues.get(key)
            if queue and queue[0][0] == seq and self.counters[key] == counter:
                return queue[0][1]
            heappop(heads)

    def pop(self) -> LLMRequest:
        request = self.peek()
        counter, _, key = heappop(self._heads)
        queue = self._queues[key]
        queue.popleft()
        if queue:
            heappush(self._heads, (counter, queue[0][0], key))
        else:
            del self._queues[key]
        return request

    def _minimum(self) -> float:
        floor = self._floor
        while floor:
            counter, key = floor[0]
            current = self.counters[key]
            if current == counter:
                return counter
            heapreplace(floor, (current, key))
        return 0.0

    def _set_counter(self, key: str, counter: float) -> None:
        if key not in self.counters:
            heappush(self._floor, (counter, key))
        self.counters[key] = counter
        queue = self._queues.get(key)
        if queue is not None:
            heappush(self._heads, (counter, queue[0][0], key))

    def _charge(self, key: str, amount: float) -> None:
        counter = self.counters.get(key)
        if counter is None:
            # An unseen tenant joins at the current minimum first.
            counter = self._minimum()
        self._set_counter(key, counter + amount)

    def on_scheduled(self, request: LLMRequest, now: float) -> None:
        self._charge(
            self._tenant_key(request), self.input_weight * request.num_prompt_tokens
        )

    def on_complete(self, request: LLMRequest, now: float) -> None:
        self._charge(
            self._tenant_key(request), self.output_weight * request.num_output_tokens
        )


SCHEDULER_POLICY_REGISTRY = PolicyRegistry("scheduler policy")
#: name -> class mapping (keys are lower-case); kept for membership checks.
SCHEDULER_POLICIES: Dict[str, Type[SchedulingPolicy]] = SCHEDULER_POLICY_REGISTRY.policies


def register_scheduler_policy(policy_class: Type[SchedulingPolicy]) -> Type[SchedulingPolicy]:
    """Register a policy class under its ``name`` (also usable as a decorator)."""
    return SCHEDULER_POLICY_REGISTRY.register(policy_class)


register_scheduler_policy(FCFSPolicy)
register_scheduler_policy(PriorityPolicy)
register_scheduler_policy(ShortestJobPolicy)
register_scheduler_policy(VirtualTokenCounterPolicy)


def available_scheduler_policies() -> List[str]:
    return SCHEDULER_POLICY_REGISTRY.available()


def create_scheduler_policy(name: str) -> SchedulingPolicy:
    """Instantiate a registered scheduling policy by name."""
    return SCHEDULER_POLICY_REGISTRY.create(name)


@dataclass(slots=True)
class PrefillItem:
    """One request's prefill work in a step.

    Atomic prefill computes the whole uncached prompt at once
    (``last_chunk=True`` always); chunked prefill computes ``new_tokens`` of
    it per step with ``cached_tokens`` tokens of attention context already
    resident (cached prefix plus previously computed chunks), and only the
    chunk that completes the prompt carries ``last_chunk=True``.
    """

    request: LLMRequest
    new_tokens: int
    cached_tokens: int
    last_chunk: bool = True


@dataclass(slots=True)
class ScheduledStep:
    """Work selected for the next engine step."""

    kind: StepKind
    prefills: List[PrefillItem] = field(default_factory=list)
    decodes: List[LLMRequest] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.prefills) + len(self.decodes)

    @property
    def new_prefill_tokens(self) -> int:
        return sum(item.new_tokens for item in self.prefills)

    @property
    def cached_prefill_tokens(self) -> int:
        return sum(item.cached_tokens for item in self.prefills)


class Scheduler:
    """Policy-driven continuous batching over a shared prefix-aware KV cache."""

    def __init__(
        self,
        config: SchedulerConfig,
        kv_cache: PrefixCache,
        prefill_chunk_tokens: Optional[int] = None,
    ):
        self.config = config
        self.kv_cache = kv_cache
        self.policy = create_scheduler_policy(config.policy)
        if config.predictor_error > 0 and hasattr(self.policy, "predictor"):
            self.policy.predictor = DecodeLengthPredictor(
                config.predictor_error, seed=config.predictor_seed
            )
        if prefill_chunk_tokens is not None and prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")
        # None = atomic prefill (whole uncached prompt in one step, the
        # pre-chunking behaviour, bit-for-bit); an int enables chunked
        # prefill with that per-step prompt-token budget.
        self.prefill_chunk_tokens = prefill_chunk_tokens
        # Queue order, which request_queues() reports; the policy's index
        # holds the same requests and decides which is admitted next.
        self.waiting: Deque[LLMRequest] = deque()
        self.running: List[LLMRequest] = []
        # Requests admitted under chunked prefill whose prompt is not fully
        # computed yet; always empty in atomic mode.
        self.prefilling: List[LLMRequest] = []
        self.preemption_count: int = 0

    # -- queue management ---------------------------------------------------
    def add_request(self, request: LLMRequest) -> None:
        request.state = RequestState.WAITING
        self.waiting.append(request)
        self.policy.push(request)

    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, now: float = 0.0) -> Optional[ScheduledStep]:
        """Pick the work for the next engine step, or ``None`` if idle."""
        if self.prefill_chunk_tokens is not None:
            return self._schedule_chunked(now)
        if self.waiting:
            step = self._schedule_prefill(now)
            if step is not None:
                return step
        if self.running:
            return self._schedule_decode()
        return None

    def _schedule_chunked(self, now: float) -> Optional[ScheduledStep]:
        """One chunked-prefill step: decode tokens plus a prompt-chunk budget.

        Decode reservations run first (possibly preempting partial prefills
        under KV pressure), then in-flight partial prefills continue in
        admission order, then new requests are admitted while budget remains.
        Steps with prefill work are ``MIXED``; pure-decode stretches keep
        kind ``DECODE`` so the engine's exact decode fast-forward still
        engages between chunks.
        """
        decodes: List[LLMRequest] = []
        if self.running:
            decodes = self._schedule_decode().decodes
        # Decode tokens consume the batch's token budget first (vLLM's
        # max_num_batched_tokens accounting); prompt chunks fill the rest,
        # capped by the configured chunk size.
        budget = min(
            self.prefill_chunk_tokens,
            max(0, self.config.max_num_batched_tokens - len(decodes)),
        )
        prefills: List[PrefillItem] = []
        for request in self.prefilling:
            if budget <= 0:
                break
            remaining = request.num_prompt_tokens - request.num_computed_tokens
            chunk = min(budget, remaining)
            prefills.append(
                PrefillItem(
                    request=request,
                    new_tokens=chunk,
                    cached_tokens=request.num_computed_tokens,
                    last_chunk=chunk == remaining,
                )
            )
            budget -= chunk
        while self.waiting and budget > 0:
            total_seqs = len(self.running) + len(self.prefilling) + len(prefills)
            if total_seqs >= self.config.max_num_seqs:
                break
            request = self.policy.peek()
            allocation = self.kv_cache.allocate_sequence(
                request, defer_registration=True
            )
            if allocation is None:
                # KV cache full: admit nothing more this step.
                break
            self.policy.pop()
            self.waiting.remove(request)
            uncached = request.num_prompt_tokens - allocation.num_cached_tokens
            request.num_computed_tokens = allocation.num_cached_tokens
            request.state = RequestState.RUNNING
            if request.timings.first_scheduled is None:
                request.timings.first_scheduled = now
            self.policy.on_scheduled(request, now)
            self.prefilling.append(request)
            chunk = min(budget, uncached)
            prefills.append(
                PrefillItem(
                    request=request,
                    new_tokens=chunk,
                    cached_tokens=allocation.num_cached_tokens,
                    last_chunk=chunk == uncached,
                )
            )
            budget -= chunk
        if prefills:
            # Always MIXED (even with no decodes), so every chunked step
            # with prefill work records as a mixed step.
            return ScheduledStep(kind=StepKind.MIXED, prefills=prefills, decodes=decodes)
        if decodes:
            return ScheduledStep(kind=StepKind.DECODE, decodes=decodes)
        return None

    def _schedule_prefill(self, now: float) -> Optional[ScheduledStep]:
        prefills: List[PrefillItem] = []
        token_budget = self.config.max_num_batched_tokens
        while self.waiting:
            if len(self.running) + len(prefills) >= self.config.max_num_seqs:
                break
            request = self.policy.peek()
            # The estimate counts every leading cached block, including the
            # one a full-prompt hit gives back (rule 2).
            cached = self.kv_cache.cached_blocks(request)
            new_tokens = max(1, request.num_prompt_tokens - len(cached) * self.kv_cache.block_size)
            if prefills and new_tokens > token_budget:
                break
            allocation = self.kv_cache.allocate_sequence(request, cached_block_ids=cached)
            if allocation is None:
                # KV cache full: admit nothing more.  If nothing is running
                # and nothing was admitted the request simply waits for blocks
                # freed by future completions.
                break
            self.policy.pop()
            self.waiting.remove(request)
            new_tokens = request.num_prompt_tokens - allocation.num_cached_tokens
            token_budget -= new_tokens
            request.state = RequestState.RUNNING
            if request.timings.first_scheduled is None:
                request.timings.first_scheduled = now
            self.policy.on_scheduled(request, now)
            prefills.append(
                PrefillItem(
                    request=request,
                    new_tokens=new_tokens,
                    cached_tokens=allocation.num_cached_tokens,
                )
            )
            if token_budget <= 0:
                break
        if not prefills:
            return None
        return ScheduledStep(kind=StepKind.PREFILL, prefills=prefills)

    def _schedule_decode(self) -> ScheduledStep:
        # Reserve KV space for the next token of every running sequence,
        # preempting the newest sequences if the cache is exhausted.  A
        # sequence whose block table already covers its next token needs no
        # KV call; only one at a block boundary allocates (in running order,
        # so allocation and LRU order are the per-sequence ones), and only
        # those can preempt.  Victim and protection checks use sets (requests
        # hash by identity), keeping this pass O(n) in the common
        # (no-preemption) case instead of O(n^2).
        scheduled: List[LLMRequest] = []
        protected: Set[LLMRequest] = set()
        preempted: Set[LLMRequest] = set()
        spare_tokens = self.kv_cache.spare_tokens
        for request in list(self.running):
            if request in preempted:
                # Already preempted as a victim earlier in this pass.
                continue
            protected.add(request)
            if spare_tokens(request) > 0:
                scheduled.append(request)
                continue
            reserved = self.kv_cache.append_token(request)
            while not reserved:
                victim = self._pick_preemption_victim(protected=protected)
                if victim is None:
                    break
                self._preempt(victim)
                preempted.add(victim)
                reserved = self.kv_cache.append_token(request)
            if reserved:
                scheduled.append(request)
            else:
                # Could not make room even after preempting everything else.
                self._preempt(request)
                protected.discard(request)
        return ScheduledStep(kind=StepKind.DECODE, decodes=scheduled)

    def _pick_preemption_victim(
        self, protected: Set[LLMRequest]
    ) -> Optional[LLMRequest]:
        # Partial prefills are the cheapest victims (least work to re-pay),
        # newest first; the list is always empty in atomic mode.
        for candidate in reversed(self.prefilling):
            if candidate not in protected:
                return candidate
        for candidate in reversed(self.running):
            if candidate not in protected:
                return candidate
        return None

    def _preempt(self, request: LLMRequest) -> None:
        """Recompute-style preemption: free blocks and move back to waiting."""
        if request in self.running:
            self.running.remove(request)
        if request in self.prefilling:
            self.prefilling.remove(request)
        self.kv_cache.release_for_preemption(request)
        request.state = RequestState.WAITING
        self.waiting.appendleft(request)
        self.policy.push_front(request)
        self.preemption_count += 1

    # -- step completion hooks ---------------------------------------------
    def on_prefill_complete(self, items: List[PrefillItem]) -> None:
        """A step with prefill work executed: promote finished prompts.

        The engine has already advanced each request's
        ``num_computed_tokens`` and registered its completed blocks; here
        requests whose final chunk ran (every atomic item) move from
        ``prefilling`` to ``running`` so they decode starting next step.
        """
        for item in items:
            request = item.request
            if item.last_chunk and request.state == RequestState.RUNNING:
                if request in self.prefilling:
                    self.prefilling.remove(request)
                self.running.append(request)

    def finish_request(self, request: LLMRequest, now: float = 0.0, output_token_ids=None) -> None:
        if request in self.running:
            self.running.remove(request)
        request.state = RequestState.FINISHED
        self.kv_cache.free_sequence(request, output_token_ids)
        self.policy.on_complete(request, now)
