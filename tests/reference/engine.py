"""A per-token reference engine written from the documented engine rules.

"One engine, step by step" in ``docs/ARCHITECTURE.md`` lists the rules one
``LLMEngine`` follows with atomic prefill, no speculation and the ``fcfs``
or ``priority`` policy.  :class:`ReferenceEngine` implements exactly those
rules as one plain loop -- arrivals, scheduler, one step -- that decodes one
token per iteration, and cites each rule as ``(rule N)`` where it applies
it.  It shares no code with the engine it checks: it imports only the pure
models (the roofline, the energy meter, KV-cache sizing and the model and
hardware specs), and ``tests/test_reference_engine.py`` fails if that
changes.  Its block pool knows only content keys and counts, because no
output shows a block id.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.llm.energy import EnergyMeter, EnergySnapshot, PowerState
from repro.llm.hardware import ClusterSpec
from repro.llm.kvcache import KVCacheConfig
from repro.llm.models import ModelSpec
from repro.llm.perf import PerformanceModel


@dataclass(frozen=True)
class TraceRequest:
    """One open-loop request: when it arrives, its prompt, its output length."""

    arrival: float
    prompt: Tuple[int, ...]
    output_tokens: int
    priority: int = 0


@dataclass(frozen=True)
class ReferenceConfig:
    """The engine knobs the rules read."""

    model: ModelSpec
    cluster: ClusterSpec
    block_size: int = 16
    enable_prefix_caching: bool = True
    policy: str = "fcfs"  # "fcfs" | "priority"
    max_num_seqs: int = 256
    max_num_batched_tokens: int = 8192


class StepRecord(NamedTuple):
    """One step record (rule 9)."""

    start: float
    duration: float
    kind: str
    batch_size: int
    new_tokens: int
    cached_tokens: int
    generated_tokens: int
    kv_blocks_active: int
    kv_bytes_active: float
    num_waiting: int
    energy_joules: float


class Observation(NamedTuple):
    """What a read sees between two changes of the engine's state (rule 10)."""

    num_waiting: int
    running_outputs: Tuple[int, ...]
    kv_blocks_active: int
    energy: EnergySnapshot


@dataclass(eq=False)
class Progress:
    """One request's progress; ``table`` holds a content key per block (None
    for an unhashed block)."""

    index: int
    request: TraceRequest
    first_scheduled: Optional[float] = None
    first_token: Optional[float] = None
    finished: Optional[float] = None
    prefill_time: float = 0.0
    decode_time: float = 0.0
    num_output_tokens: int = 0
    num_cached_tokens: int = 0
    table: List[Optional[int]] = field(default_factory=list)

    @property
    def arrival(self) -> float:
        return self.request.arrival

    @property
    def num_prompt_tokens(self) -> int:
        return len(self.request.prompt)


class BlockPool:
    """Rules 3-5 over content keys: a count of free unhashed blocks, the
    references of every cached key, and the evictable keys in LRU order."""

    def __init__(self, num_blocks: int, caching: bool):
        self.num_blocks = num_blocks
        self.caching = caching
        self.free = num_blocks
        self.refs: Dict[int, int] = {}
        self.evictable: "OrderedDict[int, None]" = OrderedDict()
        self.evictions = 0

    @property
    def available(self) -> int:
        return self.free + len(self.evictable)

    @property
    def active(self) -> int:
        return self.num_blocks - self.available

    def hits(self, keys: Sequence[int]) -> List[int]:
        """The leading cached keys (rule 3)."""
        found = []
        for key in keys:
            if key not in self.refs:
                break
            found.append(key)
        return found

    def acquire(self, keys: Sequence[int]) -> None:
        for key in keys:
            if self.refs[key] == 0:
                del self.evictable[key]
            self.refs[key] += 1

    def allocate(self, count: int) -> List[Optional[int]]:
        """``count`` unhashed blocks: free ones first, then evict LRU (rule 5)."""
        for _ in range(count):
            if self.free:
                self.free -= 1
            else:
                key, _ = self.evictable.popitem(last=False)
                del self.refs[key]
                self.evictions += 1
        return [None] * count

    def register(self, table: List[Optional[int]], position: int, key: int) -> None:
        """Key the block at ``position``, unless another block holds ``key``."""
        if not self.caching or table[position] == key:
            return
        assert table[position] is None, "a block never changes its key"
        if key in self.refs:
            return
        table[position] = key
        self.refs[key] = 1

    def release(self, table: Sequence[Optional[int]]) -> None:
        """Release a table in block order (rule 4)."""
        for key in table:
            if key is None:
                self.free += 1
                continue
            self.refs[key] -= 1
            if self.refs[key] == 0:
                self.evictable[key] = None


class ReferenceEngine:
    """Runs one open-loop trace through the documented rules, token by token."""

    def __init__(self, config: ReferenceConfig, trace: Sequence[TraceRequest]):
        self.config = config
        self.block_size = config.block_size
        self.perf = PerformanceModel(model=config.model, cluster=config.cluster)
        kv = KVCacheConfig.from_hardware(
            model=config.model,
            cluster=config.cluster,
            block_size=config.block_size,
            enable_prefix_caching=config.enable_prefix_caching,
        )
        self.bytes_per_block = kv.bytes_per_block
        self.pool = BlockPool(kv.num_blocks, config.enable_prefix_caching)
        self.energy = EnergyMeter(cluster=config.cluster)
        self.sequences = [Progress(index, item) for index, item in enumerate(trace)]
        self.waiting: List[Progress] = []  # queue order; the front is index 0
        self.running: List[Progress] = []
        self.records: List[StepRecord] = []
        self.preemptions = 0
        self.cached_token_hits = 0
        self._log_times: List[float] = []
        self._log: List[Observation] = []
        self._chain_keys: Dict[tuple, int] = {}

    # -- the loop -------------------------------------------------------------
    def run(self) -> "ReferenceEngine":
        arrivals = sorted(self.sequences, key=lambda sequence: sequence.arrival)
        upcoming = 0
        now = 0.0
        while True:
            kind, batch = self._schedule(now)
            self._observe(now)
            if kind is None:
                # Idle until the next arrival, seen at once with every
                # arrival at the same instant (rule 10).
                if upcoming == len(arrivals):
                    return self
                wake = arrivals[upcoming].arrival
                while upcoming < len(arrivals) and arrivals[upcoming].arrival <= wake:
                    self.waiting.append(arrivals[upcoming])
                    upcoming += 1
                if wake > now:
                    joules = self.energy.record(PowerState.IDLE, wake - now)
                    self._record(now, wake - now, "idle", 0, 0, 0, 0, joules)
                now = wake
                continue
            if kind == "prefill":
                duration = self.perf.prefill_time(
                    sum(new for _, new, _ in batch), sum(cached for _, _, cached in batch)
                )
            elif batch:
                duration = self.perf.decode_step_time(
                    [sequence.num_prompt_tokens + sequence.num_output_tokens for sequence in batch]
                )
            else:
                duration = self.perf.cluster.step_overhead
            end = now + duration
            # Arrivals during the step queue at once (rule 10).
            while upcoming < len(arrivals) and arrivals[upcoming].arrival <= end:
                self.waiting.append(arrivals[upcoming])
                self._observe(arrivals[upcoming].arrival)
                upcoming += 1
            if kind == "prefill":
                self._end_prefill(now, duration, batch)
            elif batch:
                self._end_decode(now, duration, batch)
            else:
                # The whole batch was preempted (rule 9).
                self.energy.record(PowerState.IDLE, duration)
            now = end

    # -- scheduling -------------------------------------------------------------
    def _schedule(self, now: float):
        """The next step (rule 1): ("prefill", items), ("decode", batch) or
        (None, None)."""
        if self.waiting:
            prefills = self._admit(now)
            if prefills:
                return "prefill", prefills
        if self.running:
            return "decode", self._reserve()
        return None, None

    def _head(self) -> Progress:
        if self.config.policy == "priority":
            # max() keeps the first of equal priorities: the earliest queued.
            return max(self.waiting, key=lambda sequence: sequence.request.priority)
        return self.waiting[0]

    def _admit(self, now: float) -> List[Tuple[Progress, int, int]]:
        """Admission (rule 2): (request, new tokens, cached tokens) items."""
        prefills: List[Tuple[Progress, int, int]] = []
        budget = self.config.max_num_batched_tokens
        while self.waiting:
            if len(self.running) + len(prefills) >= self.config.max_num_seqs:
                break
            sequence = self._head()
            prompt = sequence.num_prompt_tokens
            keys = self._chain(sequence.request.prompt)
            hits = self.pool.hits(keys)
            if prefills and max(1, prompt - len(hits) * self.block_size) > budget:
                break
            if not self._allocate_prompt(sequence, keys, hits):
                break
            self.waiting.remove(sequence)
            new = prompt - sequence.num_cached_tokens
            budget -= new
            if sequence.first_scheduled is None:
                sequence.first_scheduled = now
            prefills.append((sequence, new, sequence.num_cached_tokens))
            if budget <= 0:
                break
        return prefills

    def _allocate_prompt(self, sequence: Progress, keys: List[int], hits: List[int]) -> bool:
        """Cached prefix (rule 3)."""
        bs = self.block_size
        prompt = sequence.num_prompt_tokens
        if len(hits) * bs >= prompt:
            hits = hits[:-1]
        fresh = -(-prompt // bs) - len(hits)
        evictable_hits = sum(1 for key in hits if self.pool.refs[key] == 0)
        if fresh + evictable_hits > self.pool.available:
            return False
        self.pool.acquire(hits)
        sequence.table = hits + self.pool.allocate(fresh)
        for position in range(len(hits), prompt // bs):
            self.pool.register(sequence.table, position, keys[position])
        sequence.num_cached_tokens = len(hits) * bs
        self.cached_token_hits += sequence.num_cached_tokens
        return True

    def _reserve(self) -> List[Progress]:
        """Decode reservation (rule 6): the batch this decode step runs."""
        batch: List[Progress] = []
        visited = set()
        for sequence in list(self.running):
            if sequence not in self.running:
                continue  # preempted earlier in this pass
            visited.add(sequence)
            context = sequence.num_prompt_tokens + sequence.num_output_tokens
            if len(sequence.table) * self.block_size > context:
                batch.append(sequence)
                continue
            while not self.pool.available:
                victims = [other for other in self.running if other not in visited]
                if not victims:
                    break
                self._preempt(victims[-1])
            if self.pool.available:
                sequence.table += self.pool.allocate(1)
                batch.append(sequence)
            else:
                self._preempt(sequence)
        return batch

    def _preempt(self, sequence: Progress) -> None:
        """Recompute preemption (rule 7)."""
        self.running.remove(sequence)
        self._free(sequence)
        sequence.num_cached_tokens = 0
        self.waiting.insert(0, sequence)
        self.preemptions += 1

    # -- step ends ----------------------------------------------------------------
    def _end_prefill(self, start: float, duration: float, items) -> None:
        """Prefill effects (rule 8) and record (rule 9)."""
        end = start + duration
        joules = self.energy.record(PowerState.PREFILL, duration)
        total_new = sum(new for _, new, _ in items)
        for sequence, new, _ in items:
            sequence.prefill_time += duration * (new / max(total_new, 1))
            sequence.num_output_tokens += 1
            if sequence.first_token is None:
                sequence.first_token = end
            self.running.append(sequence)
        self._finish([sequence for sequence, _, _ in items], end)
        self._record(
            start, duration, "prefill", len(items), total_new,
            sum(cached for _, _, cached in items), len(items), joules,
        )

    def _end_decode(self, start: float, duration: float, batch: List[Progress]) -> None:
        """Decode effects (rule 8) and record (rule 9)."""
        for sequence in batch:
            sequence.decode_time += duration
            sequence.num_output_tokens += 1
        joules = self.energy.record(PowerState.DECODE, duration)
        self._finish(batch, start + duration)
        self._record(start, duration, "decode", len(batch), 0, 0, len(batch), joules)

    def _finish(self, sequences: List[Progress], now: float) -> None:
        for sequence in sequences:
            if sequence.num_output_tokens >= sequence.request.output_tokens:
                sequence.finished = now
                self.running.remove(sequence)
                self._free(sequence)

    def _free(self, sequence: Progress) -> None:
        """Free (rule 4)."""
        outputs = tuple(
            ("output", sequence.index, position)
            for position in range(sequence.num_output_tokens)
        )
        keys = self._chain(sequence.request.prompt + outputs)
        for position in range(min(len(sequence.table), len(keys))):
            self.pool.register(sequence.table, position, keys[position])
        self.pool.release(sequence.table)
        sequence.table = []

    # -- bookkeeping ------------------------------------------------------------
    def _chain(self, tokens: tuple) -> List[int]:
        """Content keys of the full blocks of ``tokens``: block i's key stands
        for blocks 0..i (rule 3).  A generated token is identified by its
        request and position."""
        keys: List[int] = []
        previous = None
        bs = self.block_size
        for start in range(0, len(tokens) - bs + 1, bs):
            content = (previous, tokens[start : start + bs])
            previous = self._chain_keys.setdefault(content, len(self._chain_keys))
            keys.append(previous)
        return keys

    def _record(self, start, duration, kind, batch_size, new, cached, generated, joules):
        blocks = self.pool.active
        self.records.append(
            StepRecord(
                start, duration, kind, batch_size, new, cached, generated,
                blocks, blocks * self.bytes_per_block, len(self.waiting), joules,
            )
        )

    def _observe(self, time: float) -> None:
        self._log_times.append(time)
        self._log.append(
            Observation(
                len(self.waiting),
                tuple(sequence.num_output_tokens for sequence in self.running),
                self.pool.active,
                self.energy.snapshot(),
            )
        )

    # -- reads ------------------------------------------------------------------
    def observe(self, time: float) -> Observation:
        """What a read at ``time`` sees: the state after the last change at
        or before it (rule 10)."""
        return self._log[bisect_right(self._log_times, time) - 1]

    def kv_utilization(self, time: float) -> float:
        return self.observe(time).kv_blocks_active / self.pool.num_blocks
