"""Continuous-batching scheduler with pluggable admission policies.

The scheduler decides, before each engine step, whether the step is a
*prefill* step (admitting waiting requests, which blocks decoding of already
running requests -- the contention the paper highlights) or a *decode* step
(one token for every running sequence).  Admission order is delegated to a
:class:`SchedulingPolicy` selected by name through a registry
(``fcfs`` | ``priority`` | ``sjf-by-predicted-decode`` | ``vtc``), and is bounded by a
per-step token budget, a maximum batch size, and KV-cache capacity.  When the
cache is exhausted mid-decode the most recently admitted request is preempted
with recompute semantics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
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
    """Decides which waiting request is admitted next.

    Policies are selectors over the waiting queue: the scheduler calls
    :meth:`select_index` repeatedly during one prefill pass, removing the
    chosen request each time, so policies never mutate the queue themselves.

    Stateful policies (``vtc``) additionally receive feedback through the
    optional :meth:`on_scheduled` / :meth:`on_complete` hooks, which the
    scheduler fires when a request is admitted to prefill and when it
    finishes; the base implementations are no-ops, so existing selector-only
    policies are unaffected.
    """

    name = "base"

    #: Whether :meth:`select_index` depends only on the waiting queue's
    #: contents and the policy's own counters -- not on ``now``.  All built-in
    #: policies are time-invariant; the engine's decode fast-forward relies on
    #: this to know that a prefill attempt that failed for lack of KV blocks
    #: would keep failing (and keep selecting the same candidate) at every
    #: intermediate token boundary of a fast-forwarded run.  A run is bounded
    #: per engine: only its own completions, KV budget and arrivals end it,
    #: so it may span many events elsewhere in the simulation.  Neither the
    #: queue nor the policy's counters change inside it (an arrival cuts the
    #: run; admission and completion hooks fire only at the engine's own
    #: wake-ups).  Custom policies whose selection genuinely depends on
    #: wall-clock time must set this to ``False`` to force per-token
    #: scheduling under contention.
    time_invariant_select = True

    def select_index(self, waiting: Deque[LLMRequest], now: float) -> int:
        """Index (into ``waiting``) of the request to admit next.

        **Determinism contract**: comparison-based policies scan the queue
        from index 0 and replace the incumbent only on a *strict* win, so
        ties break toward the earliest-queued request (FCFS-stable).  A
        policy whose scores are all equal must therefore behave exactly
        like :class:`FCFSPolicy`.  Regression-pinned in
        ``tests/test_scheduler_policies.py``.
        """
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

    def select_index(self, waiting: Deque[LLMRequest], now: float) -> int:
        return 0


class PriorityPolicy(SchedulingPolicy):
    """Highest ``metadata["priority"]`` first; FCFS among equal priorities.

    Priorities are read from ``LLMRequest.metadata["priority"]``, which the
    submitter (a client, workload, or admission layer) must set; the built-in
    agents do not assign priorities yet, so without an assigning caller this
    policy degenerates to FCFS (every request scores 0.0).
    """

    name = "priority"

    def select_index(self, waiting: Deque[LLMRequest], now: float) -> int:
        best_index = 0
        best_priority = None
        for index, request in enumerate(waiting):
            priority = self._priority(request)
            if best_priority is None or priority > best_priority:
                best_index, best_priority = index, priority
        return best_index

    @staticmethod
    def _priority(request: LLMRequest) -> float:
        return float(request.metadata.get("priority", 0.0))


class ShortestJobPolicy(SchedulingPolicy):
    """Shortest predicted decode first (FCFS tie-break).

    Decode lengths come from a :class:`DecodeLengthPredictor`: exact by
    default (the idealized upper bound for SJF schedulers driven by learned
    output-length prediction), noisy when the scheduler config sets a
    ``predictor_error`` -- so scheduler studies no longer have to assume a
    perfect oracle.
    """

    name = "sjf-by-predicted-decode"

    def __init__(self) -> None:
        self.predictor = DecodeLengthPredictor()

    def select_index(self, waiting: Deque[LLMRequest], now: float) -> int:
        best_index = 0
        best_cost = None
        for index, request in enumerate(waiting):
            cost = self.predictor.predict(request)
            if best_cost is None or cost < best_cost:
                best_index, best_cost = index, cost
        return best_index


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
    shared key -- under which VTC degenerates to FCFS exactly (strict-``<``
    scan from index 0, per the determinism contract).

    A tenant first seen mid-run joins at the *minimum* live counter rather
    than zero: newcomers get immediate service without being handed a deep
    credit that would starve everyone else while they catch up.
    """

    name = "vtc"

    def __init__(self, input_weight: float = 1.0, output_weight: float = 2.0):
        if input_weight < 0 or output_weight < 0:
            raise ValueError("vtc token weights must be >= 0")
        self.input_weight = input_weight
        self.output_weight = output_weight
        self.counters: Dict[str, float] = {}

    @staticmethod
    def _tenant_key(request: LLMRequest) -> str:
        tenant = request.metadata.get("tenant")
        if tenant is not None:
            return str(tenant)
        traffic_class = request.metadata.get("traffic_class")
        if traffic_class is not None:
            return str(traffic_class)
        return ""

    def _counter_for(self, key: str) -> float:
        counter = self.counters.get(key)
        if counter is None:
            # Lazy join at the current minimum: fresh tenants go first among
            # peers but carry no unbounded credit from their idle past.
            counter = min(self.counters.values(), default=0.0)
            self.counters[key] = counter
        return counter

    def select_index(self, waiting: Deque[LLMRequest], now: float) -> int:
        best_index = 0
        best_counter = None
        for index, request in enumerate(waiting):
            counter = self._counter_for(self._tenant_key(request))
            if best_counter is None or counter < best_counter:
                best_index, best_counter = index, counter
        return best_index

    def on_scheduled(self, request: LLMRequest, now: float) -> None:
        key = self._tenant_key(request)
        self.counters[key] = (
            self._counter_for(key) + self.input_weight * request.num_prompt_tokens
        )

    def on_complete(self, request: LLMRequest, now: float) -> None:
        key = self._tenant_key(request)
        self.counters[key] = (
            self._counter_for(key) + self.output_weight * request.num_output_tokens
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

    def has_work(self) -> bool:
        return bool(self.waiting) or bool(self.running) or bool(self.prefilling)

    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def num_prefilling(self) -> int:
        return len(self.prefilling)

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
            return self._schedule_decode(now)
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
            decodes = self._schedule_decode(now).decodes
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
            index = self.policy.select_index(self.waiting, now)
            request = self.waiting[index]
            allocation = self.kv_cache.allocate_sequence(
                request, now=now, defer_registration=True
            )
            if allocation is None:
                # KV cache full: admit nothing more this step.
                break
            del self.waiting[index]
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
            # Always MIXED (even with no decodes): items may be partial
            # chunks, which only the engine's mixed executor understands.
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
            index = self.policy.select_index(self.waiting, now)
            request = self.waiting[index]
            cached_estimate = self.kv_cache.peek_cached_tokens(
                request.prompt_token_ids,
                hashes=request.prompt_block_hashes(self.kv_cache.block_size),
            )
            new_tokens = max(1, request.num_prompt_tokens - cached_estimate)
            if prefills and new_tokens > token_budget:
                break
            allocation = self.kv_cache.allocate_sequence(request, now=now)
            if allocation is None:
                # KV cache full: admit nothing more.  If nothing is running
                # and nothing was admitted the request simply waits for blocks
                # freed by future completions.
                break
            del self.waiting[index]
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

    def _schedule_decode(self, now: float) -> ScheduledStep:
        # Reserve KV space for the next token of every running sequence,
        # preempting the newest sequences if the cache is exhausted.  Victim
        # and protection checks use identity sets, keeping this pass O(n)
        # in the common (no-preemption) case instead of O(n^2).
        scheduled: List[LLMRequest] = []
        protected: Set[int] = set()
        preempted: Set[int] = set()
        for request in list(self.running):
            if id(request) in preempted:
                # Already preempted as a victim earlier in this pass.
                continue
            protected.add(id(request))
            reserved = self.kv_cache.append_token(request, now=now)
            while not reserved:
                victim = self._pick_preemption_victim(protected=protected)
                if victim is None:
                    break
                self._preempt(victim, now)
                preempted.add(id(victim))
                reserved = self.kv_cache.append_token(request, now=now)
            if reserved:
                scheduled.append(request)
            else:
                # Could not make room even after preempting everything else.
                self._preempt(request, now)
                protected.discard(id(request))
        return ScheduledStep(kind=StepKind.DECODE, decodes=scheduled)

    def _pick_preemption_victim(
        self, protected: Set[int]
    ) -> Optional[LLMRequest]:
        # Partial prefills are the cheapest victims (least work to re-pay),
        # newest first; the list is always empty in atomic mode.
        for candidate in reversed(self.prefilling):
            if id(candidate) not in protected:
                return candidate
        for candidate in reversed(self.running):
            if id(candidate) not in protected:
                return candidate
        return None

    def _preempt(self, request: LLMRequest, now: float) -> None:
        """Recompute-style preemption: free blocks and move back to waiting."""
        if request in self.running:
            self.running.remove(request)
        if request in self.prefilling:
            self.prefilling.remove(request)
        self.kv_cache.release_for_preemption(request, now=now)
        request.state = RequestState.WAITING
        self.waiting.appendleft(request)
        self.preemption_count += 1

    # -- step completion hooks ---------------------------------------------
    def on_prefill_complete(self, items: List[PrefillItem]) -> None:
        for item in items:
            if item.request.state == RequestState.RUNNING:
                self.running.append(item.request)

    def on_chunks_complete(self, items: List[PrefillItem]) -> None:
        """A chunked-prefill step executed: promote finished prompts.

        The engine has already advanced each request's
        ``num_computed_tokens`` and registered chunk-boundary hashes; here
        requests whose final chunk ran move from ``prefilling`` to
        ``running`` so they decode starting next step.
        """
        for item in items:
            request = item.request
            if item.last_chunk and request.state == RequestState.RUNNING:
                if request in self.prefilling:
                    self.prefilling.remove(request)
                self.running.append(request)

    def finish_request(self, request: LLMRequest, now: float = 0.0) -> None:
        if request in self.running:
            self.running.remove(request)
        request.state = RequestState.FINISHED
        self.kv_cache.free_sequence(request, now=now)
        self.policy.on_complete(request, now)
