"""The simulated LLM serving engine.

The engine is a single simulation process that mirrors a vLLM engine loop:

1. ask the scheduler for the next step (prefill or decode),
2. advance simulated time by the step duration from the roofline model,
3. apply the step's effects (first token after prefill, one token per
   running sequence per decode step, completions, block bookkeeping),
4. account energy for the time spent in the step's power state,
5. when there is no work, sleep at idle power until a request arrives.

Every step is recorded so experiments can compute GPU-runtime breakdowns,
utilization, and KV-memory statistics exactly the way the paper reports them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.llm.energy import EnergyMeter, EnergySnapshot, PowerState
from repro.llm.hardware import ClusterSpec, cluster_for_model
from repro.llm.kvcache import KVCacheConfig
from repro.llm.models import ModelSpec, LLAMA_3_1_8B
from repro.llm.perf import PerformanceModel
from repro.llm.prefix_cache import PrefixCache
from repro.llm.request import LLMRequest, RequestState
from repro.llm.scheduler import ScheduledStep, Scheduler, SchedulerConfig, StepKind
from repro.llm.speculative import SpeculativeSpec
from repro.llm.tokenizer import SyntheticTokenizer
from repro.sim import Environment, Event, RandomStream


@dataclass(frozen=True)
class EngineConfig:
    """Complete configuration of one serving engine (one model replica)."""

    model: ModelSpec = LLAMA_3_1_8B
    cluster: Optional[ClusterSpec] = None
    block_size: int = 16
    enable_prefix_caching: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    # Exact decode fast-forwarding: collapse runs of per-token decode steps
    # into one simulated event.  A run is bounded per engine -- by this
    # engine's earliest completion, its KV-allocation budget, the run
    # horizon, and arrivals at this engine -- never by other engines' events;
    # every per-token timing is reconstructed, so results are bit-for-bit
    # identical to the per-token path.  It is on by default and only
    # disabled for A/B-testing the equivalence.
    decode_fast_forward: bool = True
    # Fraction of the hardware-derived KV block budget this engine gets
    # (1.0 = the full budget; see KVCacheConfig.from_hardware).
    kv_cache_fraction: float = 1.0
    # Chunked prefill: per-step budget of prompt tokens, co-scheduled with
    # decode tokens in one mixed roofline step (vLLM's chunked prefill).
    # None = atomic prefill, the pre-chunking behaviour, bit-for-bit.
    prefill_chunk_tokens: Optional[int] = None
    # Speculative decoding acceptance model; None = disabled (bit-for-bit
    # identical to the pre-speculative engine).  When set, decode steps emit
    # ``accepted + 1`` tokens for one verify pass plus the draft-model cost,
    # and speculative execution supersedes ``decode_fast_forward`` (the
    # fast-forward's one-token-per-step replay no longer describes a step).
    speculative: Optional[SpeculativeSpec] = None

    def __post_init__(self) -> None:
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")

    def resolved_cluster(self) -> ClusterSpec:
        return self.cluster if self.cluster is not None else cluster_for_model(self.model)


# Not frozen: records are created once per simulated step on the hot path,
# and a frozen dataclass pays object.__setattr__ per field in __init__.
@dataclass(slots=True)
class EngineStepRecord:
    """One engine step (or idle period) for offline analysis."""

    start: float
    duration: float
    kind: str                      # "prefill" | "decode" | "mixed" | "idle"
    batch_size: int
    new_tokens: int
    cached_tokens: int
    generated_tokens: int
    kv_blocks_active: int
    kv_bytes_active: float
    num_waiting: int
    energy_joules: float


@dataclass(slots=True)
class _DecodeRun:
    """A fast-forwarded decode run in flight.

    ``ends[i]`` is the absolute end time of virtual step ``i``; steps
    ``[0, applied)`` have been replayed.  ``alloc_plan`` is the planner's
    replay index -> positions (into ``decodes``) of the sequences whose
    block table grows at that step boundary.
    """

    decodes: List[LLMRequest]
    start: float
    durations: List[float]
    ends: List[float]
    alloc_plan: Dict[int, List[int]]
    applied: int = 0


class LLMEngine:
    """Discrete-event vLLM-style engine bound to a simulation environment.

    A fast-forwarded decode run applies its virtual steps lazily, so while
    one is in flight the engine's state lags ``env.now``.  Reads that can
    happen mid-run go through :meth:`request_queues`,
    :meth:`kv_utilization` and :meth:`energy_snapshot`, which first replay
    the steps that have ended.  :attr:`num_pending_requests` and
    :attr:`completed_requests` are exact at any instant without that:
    admission, preemption and completions happen only at the engine's own
    wake-ups.
    """

    def __init__(self, env: Environment, config: EngineConfig):
        self.env = env
        self.config = config
        self.model = config.model
        self.cluster = config.resolved_cluster()
        self.perf = PerformanceModel(model=self.model, cluster=self.cluster)
        kv_config = KVCacheConfig.from_hardware(
            model=self.model,
            cluster=self.cluster,
            block_size=config.block_size,
            enable_prefix_caching=config.enable_prefix_caching,
            capacity_fraction=config.kv_cache_fraction,
        )
        self.kv_cache = PrefixCache(kv_config)
        self.scheduler = Scheduler(
            config.scheduler,
            self.kv_cache,
            prefill_chunk_tokens=config.prefill_chunk_tokens,
        )
        self.energy = EnergyMeter(cluster=self.cluster)
        self.tokenizer = SyntheticTokenizer(vocab_size=self.model.vocab_size)

        self.step_records: List[EngineStepRecord] = []
        self.completed_requests: List[LLMRequest] = []
        self.total_generated_tokens: int = 0
        self.total_prefill_tokens: int = 0
        # Seconds during which an atomic prefill step ran while decodes were
        # blocked behind it (head-of-line blocking) -- the pathology chunked
        # prefill exists to remove.  Pure telemetry; never feeds back into
        # simulated behaviour.
        self.prefill_hol_block_s: float = 0.0
        # Speculative-decoding counters: per-sequence verify events and the
        # draft tokens those verifies accepted (excluding bonus tokens).
        self.spec_sequence_steps: int = 0
        self.spec_accepted_tokens: int = 0
        # Per-request acceptance substreams (created lazily, keyed by
        # request id so draws are independent of batch composition).
        self._accept_streams: Dict[int, RandomStream] = {}

        # Window-query acceleration: step records are appended in time order,
        # so (sorted) start/end arrays let reporting bisect to the records
        # overlapping a window, and running full-history aggregates answer
        # whole-run queries in O(1) instead of re-scanning every record.
        self._record_starts: List[float] = []
        self._record_ends: List[float] = []
        self._full_breakdown: Dict[str, float] = {
            "prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0
        }
        self._full_kv_time: float = 0.0
        self._full_kv_weighted: float = 0.0
        self._full_kv_max: float = 0.0

        self._wakeup: Optional[Event] = None
        self._idle_since: Optional[float] = None
        self._decode_run: Optional[_DecodeRun] = None
        self._process = env.process(self._run())

    # -- public API ---------------------------------------------------------
    def submit(self, request: LLMRequest) -> Event:
        """Queue a request; returns the event that fires with its LLMResult.

        A decode run in flight is cut after the virtual step in progress
        (the one whose ``[start, end)`` holds ``now``): like the per-token
        path, the engine sees the arrival at the next step boundary.  An
        arrival exactly at a boundary counts toward the later step, as in
        the per-token path when the arrival's event was scheduled after the
        earlier step began; one scheduled before that, landing on the
        boundary to the last bit, would have been seen a step sooner.
        """
        run = self._decode_run
        if run is not None:
            self._catch_up()
            kept = bisect_right(run.ends, self.env.now) + 1
            if kept < len(run.ends):
                del run.durations[kept:]
                del run.ends[kept:]
                self._process.retarget(self.env.timeout_at(run.ends[-1]))
        request.timings.arrival = self.env.now
        completion = self.env.event()
        request.completion_event = completion
        request.tokenizer = self.tokenizer
        self.scheduler.add_request(request)
        self._wake()
        return completion

    @property
    def num_pending_requests(self) -> int:
        return self.scheduler.num_waiting + self.scheduler.num_running

    def request_queues(self) -> Tuple[Sequence[LLMRequest], Sequence[LLMRequest]]:
        """The waiting and running requests, decode progress current as of now."""
        self._catch_up()
        return self.scheduler.waiting, self.scheduler.running

    def kv_utilization(self) -> float:
        """Fraction of this engine's KV blocks in use now (0 without blocks)."""
        self._catch_up()
        total = self.kv_cache.allocator.num_blocks
        if total <= 0:
            return 0.0
        return self.kv_cache.active_blocks() / total

    def energy_snapshot(self) -> EnergySnapshot:
        """Energy booked so far, including every decode step that has ended."""
        self._catch_up()
        return self.energy.snapshot()

    # -- engine loop ----------------------------------------------------------
    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        while True:
            preemptions_before = self.scheduler.preemption_count
            step = self.scheduler.schedule(now=self.env.now)
            if step is None:
                yield from self._idle_until_work()
                continue
            if step.kind == StepKind.PREFILL:
                yield from self._execute_prefill(step)
            elif step.kind == StepKind.MIXED:
                yield from self._execute_mixed(step)
            else:
                preempted = self.scheduler.preemption_count != preemptions_before
                yield from self._execute_decode(step, preempted)

    def _idle_until_work(self):
        idle_start = self.env.now
        self._idle_since = idle_start
        self._wakeup = self.env.event()
        yield self._wakeup
        self._wakeup = None
        self._idle_since = None
        duration = self.env.now - idle_start
        if duration > 0:
            joules = self.energy.record(PowerState.IDLE, duration)
            self._record_step(
                start=idle_start,
                duration=duration,
                kind="idle",
                batch_size=0,
                new_tokens=0,
                cached_tokens=0,
                generated_tokens=0,
                energy_joules=joules,
            )

    def _execute_prefill(self, step: ScheduledStep):
        start = self.env.now
        new_tokens = step.new_prefill_tokens
        cached_tokens = step.cached_prefill_tokens
        duration = self.perf.prefill_time(new_tokens, cached_tokens)
        # Running sequences decode nothing while this atomic prefill step
        # occupies the engine: head-of-line blocking, metered for the
        # ``prefill_hol_block_s`` metric (telemetry only).
        if self.scheduler.num_running > 0:
            self.prefill_hol_block_s += duration
        yield self.env.timeout(duration)
        joules = self.energy.record(PowerState.PREFILL, duration)

        generated = 0
        for item in step.prefills:
            request = item.request
            request.num_computed_tokens = request.num_prompt_tokens
            share = item.new_tokens / max(new_tokens, 1)
            request.timings.prefill_time += duration * share
            # Prefill produces the first output token.
            request.num_output_tokens += 1
            generated += 1
            if request.timings.first_token is None:
                request.timings.first_token = self.env.now
        self.scheduler.on_prefill_complete(step.prefills)
        self.total_prefill_tokens += new_tokens
        self.total_generated_tokens += generated
        self._finish_completed([item.request for item in step.prefills])
        self._record_step(
            start=start,
            duration=duration,
            kind="prefill",
            batch_size=step.batch_size,
            new_tokens=new_tokens,
            cached_tokens=cached_tokens,
            generated_tokens=generated,
            energy_joules=joules,
        )

    def _execute_mixed(self, step: ScheduledStep):
        """One chunked-prefill step: prompt chunks and decode tokens together.

        A single roofline evaluation covers the combined work
        (:meth:`PerformanceModel.mixed_step_time`); energy books under the
        prefill power state (the chunk's dense compute dominates the step's
        intensity).  Prefill chunks advance ``num_computed_tokens`` and
        publish chunk-boundary hashes; the chunk completing a prompt emits
        the request's first token and promotes it to decoding.  Decode
        sequences each emit one token exactly as in a per-token decode step.
        """
        start = self.env.now
        new_tokens = step.new_prefill_tokens
        cached_tokens = step.cached_prefill_tokens
        context_lengths = [request.context_length for request in step.decodes]
        duration = self.perf.mixed_step_time(new_tokens, cached_tokens, context_lengths)
        yield self.env.timeout(duration)
        joules = self.energy.record(PowerState.PREFILL, duration)

        generated = 0
        now = self.env.now
        for item in step.prefills:
            request = item.request
            request.num_computed_tokens += item.new_tokens
            self.kv_cache.register_prefill_progress(request, request.num_computed_tokens)
            share = item.new_tokens / max(new_tokens, 1)
            request.timings.prefill_time += duration * share
            if item.last_chunk:
                request.num_output_tokens += 1
                generated += 1
                if request.timings.first_token is None:
                    request.timings.first_token = now
        for request in step.decodes:
            request.timings.decode_time += duration
            request.num_output_tokens += 1
            generated += 1
        self.scheduler.on_chunks_complete(step.prefills)
        self.total_prefill_tokens += new_tokens
        self.total_generated_tokens += generated
        finishable = [item.request for item in step.prefills if item.last_chunk]
        finishable.extend(step.decodes)
        self._finish_completed(finishable)
        self._record_step(
            start=start,
            duration=duration,
            kind="mixed",
            batch_size=step.batch_size,
            new_tokens=new_tokens,
            cached_tokens=cached_tokens,
            generated_tokens=generated,
            energy_joules=joules,
        )

    def _execute_decode(self, step: ScheduledStep, preempted: bool = False):
        if not step.decodes:
            # Everything got preempted; yield a minimal scheduling delay so
            # the loop makes progress and retries admission.
            duration = self.cluster.step_overhead
            yield self.env.timeout(duration)
            self.energy.record(PowerState.IDLE, duration)
            return
        if self.config.speculative is not None:
            # Speculative decoding changes what a decode step *is* (verify +
            # draft, multiple tokens per sequence), so it supersedes the
            # fast-forward.
            yield from self._execute_decode_speculative(step)
            return
        yield from self._execute_decode_exact(step, preempted)

    def _execute_decode_speculative(self, step: ScheduledStep):
        """One speculative decode step: draft ``k`` tokens, verify, emit run.

        Step time is one target verify pass over the batch plus ``k`` draft
        passes at ``draft_ratio`` of its cost; verify time books under the
        decode power state and draft time under
        :attr:`~repro.llm.energy.PowerState.DRAFT`.  Each sequence emits its
        accepted run plus the bonus token (clamped to its remaining output
        and to the KV blocks actually reservable), with acceptance drawn
        from the sequence's dedicated substream so the draw sequence is
        independent of batch composition.
        """
        start = self.env.now
        spec = self.config.speculative
        decodes = step.decodes
        context_lengths = [request.context_length for request in decodes]
        verify_duration = self.perf.decode_step_time(context_lengths)
        draft_duration = (
            spec.num_speculative_tokens * spec.draft_ratio * verify_duration
        )
        duration = verify_duration + draft_duration
        yield self.env.timeout(duration)
        joules = self.energy.record(PowerState.DECODE, verify_duration)
        joules += self.energy.record(PowerState.DRAFT, draft_duration)

        generated = 0
        streams = self._accept_streams
        for request in decodes:
            stream = streams.get(request.request_id)
            if stream is None:
                stream = spec.acceptance_stream(request.request_id)
                streams[request.request_id] = stream
            accepted = spec.draw_accepted(stream)
            self.spec_sequence_steps += 1
            emit = min(accepted + 1, request.remaining_output_tokens)
            # The scheduler's per-step reservation covers one token; the
            # accepted extras need their own KV blocks.  Clamp the emission
            # to what the free pool can actually hold (reserve_tokens fails
            # without side effects, so stepping down is safe).
            while emit > 1 and not self.kv_cache.reserve_tokens(request, emit):
                emit -= 1
            self.spec_accepted_tokens += emit - 1
            request.timings.decode_time += duration
            emitted = max(emit, 1)
            request.num_output_tokens += emitted
            generated += emitted
        self.total_generated_tokens += generated
        self._finish_completed(decodes)
        for request in decodes:
            if request.state == RequestState.FINISHED:
                streams.pop(request.request_id, None)
        self._record_step(
            start=start,
            duration=duration,
            kind="decode",
            batch_size=len(decodes),
            new_tokens=0,
            cached_tokens=0,
            generated_tokens=generated,
            energy_joules=joules,
        )

    def _execute_decode_exact(self, step: ScheduledStep, preempted: bool):
        """Decode with exact fast-forwarding.

        Advances the decode batch through a run of virtual token steps in a
        single simulated event.  The run ends only at this engine's own
        boundaries -- its earliest request completion, its KV free-block
        budget, the active run horizon (:meth:`_plan_decode_chunk`) -- and
        only forms when this step's scheduling did not preempt.  Events
        elsewhere in the simulation fire while the run is in flight: reads
        that can observe this engine first replay the virtual steps that have
        already ended (:meth:`_catch_up`), and :meth:`submit` cuts the run
        after the step in progress.  The replay (:meth:`_replay_decode`)
        reproduces the per-token bookkeeping with the exact float sequencing
        of the per-token path, so the result is bit-for-bit identical to
        running one token per event.
        """
        start = self.env.now
        decodes = step.decodes
        k_limit = 1
        if (
            self.config.decode_fast_forward
            and not preempted
            # A partial prefill in flight means the next step will be MIXED,
            # so no decode run is unobservable (always empty in atomic mode).
            and not self.scheduler.prefilling
        ):
            k_limit = max(1, min(request.remaining_output_tokens for request in decodes))
        # Every step up to the earliest completion, priced in one call; the
        # plan keeps them all unless the horizon or the KV budget ends the
        # run sooner, which is rare.
        step_times = self.perf.decode_run_step_times(
            [request.context_length for request in decodes], k_limit
        )
        if k_limit > 1:
            durations, ends, alloc_plan = self._plan_decode_chunk(start, step_times, decodes)
        else:
            durations, ends, alloc_plan = step_times, [start + step_times[0]], {}
        run = _DecodeRun(decodes, start, durations, ends, alloc_plan)
        self._decode_run = run
        yield self.env.timeout_at(ends[-1])
        self._decode_run = None
        self._replay_decode(run, len(run.durations))

    def _replay_decode(self, run: _DecodeRun, stop: int) -> None:
        """Apply virtual steps ``[run.applied, stop)`` of a decode run.

        Replays the per-token effects in the order the per-token loop
        produces them: for each virtual step i at [s_i, e_i] -- energy,
        completions (the run's last step only; earlier steps cannot complete
        by construction), the step record (sampling KV state before the next
        step's reservations), then the KV appends for step i+1.  Nothing
        between two completions reads a request's own decode progress, so
        each request's output count and decode time advance once for the
        whole chunk: folding the durations left to right is the per-step
        ``+=`` sequence.  Only requests the plan proved need a block at this
        boundary hit the allocator, and each gets exactly one block without
        re-deriving its context: the per-token path's other append_token
        calls are no-ops with no side effects.
        """
        first = run.applied
        run.applied = stop
        decodes = run.decodes
        durations = run.durations[first:stop]
        count = stop - first
        last = len(run.durations) - 1
        batch = len(decodes)
        for request in decodes:
            request.num_output_tokens += count
            timings = request.timings
            timings.decode_time = reduce(add, durations, timings.decode_time)
        joules_series = self.energy.record_series(PowerState.DECODE, durations)
        append_block = self.kv_cache.append_block
        alloc_plan = run.alloc_plan
        # Inlined _record_step: inside a run nothing but the run itself
        # changes this engine's state (an arrival cuts the run, so only the
        # last step can see it), so the batch size, waiting count, and
        # (between planned block allocations, each of which adds exactly one
        # active block) the KV occupancy are known without re-deriving them
        # per virtual step.  The last step re-samples both after completions
        # run, exactly where the per-token path samples them.
        allocator = self.kv_cache.allocator
        bytes_per_block = allocator.config.bytes_per_block
        kv_blocks = allocator.num_active_blocks
        num_waiting = self.scheduler.num_waiting
        records = self.step_records
        starts = self._record_starts
        ends = self._record_ends
        breakdown_decode = self._full_breakdown["decode"]
        kv_time = self._full_kv_time
        kv_weighted = self._full_kv_weighted
        kv_max = self._full_kv_max
        self.total_generated_tokens += batch * count
        step_start = run.ends[first - 1] if first else run.start
        for offset, duration in enumerate(durations):
            index = first + offset
            step_end = step_start + duration
            joules = joules_series[offset]
            if index == last:
                self._finish_completed(decodes)
                kv_blocks = allocator.num_active_blocks
                num_waiting = self.scheduler.num_waiting
            kv_bytes = kv_blocks * bytes_per_block
            records.append(
                EngineStepRecord(
                    step_start,
                    duration,
                    "decode",
                    batch,
                    0,
                    0,
                    batch,
                    kv_blocks,
                    kv_bytes,
                    num_waiting,
                    joules,
                )
            )
            starts.append(step_start)
            ends.append(step_end)
            overlap = step_end - step_start
            if overlap > 0:
                breakdown_decode += overlap
                kv_time += overlap
                kv_weighted += kv_bytes * overlap
                if kv_bytes > kv_max:
                    kv_max = kv_bytes
            if index < last:
                grown = alloc_plan.get(index)
                if grown:
                    for pos in grown:
                        append_block(decodes[pos])
                    kv_blocks += len(grown)
            step_start = step_end
        self._full_breakdown["decode"] = breakdown_decode
        self._full_kv_time = kv_time
        self._full_kv_weighted = kv_weighted
        self._full_kv_max = kv_max

    def _catch_up(self) -> None:
        """Replay the in-flight run's virtual steps that have ended by now.

        A step ending exactly at ``now`` has ended (steps are half-open
        ``[start, end)``): in the per-token path its end event is processed
        before any event scheduled after the step began.  The run's last
        step is left to the engine's own wake-up: it carries the run's
        completions.
        """
        run = self._decode_run
        if run is not None:
            ended = bisect_right(run.ends, self.env.now, 0, len(run.ends) - 1)
            if ended > run.applied:
                self._replay_decode(run, ended)

    def _plan_decode_chunk(
        self,
        start: float,
        step_times: List[float],
        decodes: List[LLMRequest],
    ) -> Tuple[List[float], List[float], Dict[int, List[int]]]:
        """Durations of the longest run of decode steps this engine can own.

        Extends the run one virtual step of ``step_times`` at a time (one
        per step up to the earliest completion), while (a) the final wake
        stays within the active numeric run horizon, so a paused run never
        leaves the run half-applied, and (b) the KV block allocations the
        per-token path would perform at each intermediate boundary all fit
        in the free pool, so no step would have preempted.  Events elsewhere
        in the simulation do not bound the run: an arrival at this engine
        cuts it (:meth:`submit`), and reads of its state catch it up first.

        Returns the durations, each step's absolute end time, and the
        allocation plan: replay loop index -> positions (into ``decodes``,
        ascending) of the sequences whose block table must grow at that step
        boundary.
        """
        horizon = self.env.run_horizon
        block_size = self.kv_cache.block_size
        free_budget = self.kv_cache.num_free_blocks()
        allocated = 0
        # Min-heap of (due_step, position, room) per sequence: the boundary
        # append of step j allocates a block exactly when j > room (room =
        # how many tokens the block table covers beyond the current context;
        # this step's reservation already ran in the scheduler).  Each
        # allocation raises room by block_size, so a healthy sequence falls
        # due every block_size steps -- but a sequence re-admitted after
        # recompute preemption is allocated blocks for its prompt only and
        # re-grows its table one block per step (room <= 0) until it catches
        # up, which this cadence reproduces exactly.
        due: List[Tuple[int, int, int]] = []
        for pos, request in enumerate(decodes):
            room = self.kv_cache.spare_tokens(request)
            due.append((max(2, room + 1), pos, room))
        heapq.heapify(due)
        alloc_plan: Dict[int, List[int]] = {}
        durations = step_times[:1]
        end = start + durations[0]
        ends = [end]
        for index, next_duration in enumerate(step_times[1:], 2):
            next_end = end + next_duration
            if next_end > horizon:
                break
            growers: List[int] = []
            while due and due[0][0] == index:
                _, pos, room = heapq.heappop(due)
                growers.append(pos)
                room += block_size
                heapq.heappush(due, (max(index + 1, room + 1), pos, room))
            if growers:
                if allocated + len(growers) > free_budget:
                    break
                allocated += len(growers)
                growers.sort()
                # The per-token path reserves before executing step ``index``,
                # which the replay loop reaches at the end of iteration
                # ``index - 2`` (its appends prepare the following step).
                alloc_plan[index - 2] = growers
            durations.append(next_duration)
            ends.append(next_end)
            end = next_end
        return durations, ends, alloc_plan

    # -- helpers -------------------------------------------------------------
    def _finish_completed(self, requests: List[LLMRequest]) -> None:
        for request in requests:
            if request.num_output_tokens < request.target_output_tokens:
                continue
            if request.state == RequestState.FINISHED:
                continue
            request.timings.finished = self.env.now
            self.scheduler.finish_request(request, now=self.env.now)
            self.completed_requests.append(request)
            if request.completion_event is not None:
                request.completion_event.succeed(request.to_result())
            # The result holds the ids now; nothing reads the stream again.
            self.tokenizer.forget_stream(request.output_stream)

    def _record_step(
        self,
        start: float,
        duration: float,
        kind: str,
        batch_size: int,
        new_tokens: int,
        cached_tokens: int,
        generated_tokens: int,
        energy_joules: float,
    ) -> None:
        allocator = self.kv_cache.allocator
        kv_blocks_active = allocator.num_active_blocks
        # Same arithmetic as allocator.active_bytes, without re-deriving the
        # active-block count (this runs once per simulated step).
        kv_bytes_active = kv_blocks_active * allocator.config.bytes_per_block
        self.step_records.append(
            EngineStepRecord(
                start=start,
                duration=duration,
                kind=kind,
                batch_size=batch_size,
                new_tokens=new_tokens,
                cached_tokens=cached_tokens,
                generated_tokens=generated_tokens,
                kv_blocks_active=kv_blocks_active,
                kv_bytes_active=kv_bytes_active,
                num_waiting=self.scheduler.num_waiting,
                energy_joules=energy_joules,
            )
        )
        # Running aggregates use the same float expression the windowed scan
        # evaluates for a full-history window, keeping them bit-identical.
        record_end = start + duration
        overlap = record_end - start
        self._record_starts.append(start)
        self._record_ends.append(record_end)
        if overlap > 0:
            self._full_breakdown[kind] += overlap
            self._full_kv_time += overlap
            self._full_kv_weighted += kv_bytes_active * overlap
            self._full_kv_max = max(self._full_kv_max, kv_bytes_active)

    # -- reporting -------------------------------------------------------------
    def _window_indices(self, start: float, end: float) -> range:
        """Index range of step records that can overlap ``[start, end]``.

        Records are appended in time order (engine steps never overlap), so
        both start and end arrays are sorted and the overlapping records form
        one contiguous run found by bisection.
        """
        lo = bisect_right(self._record_ends, start)
        hi = bisect_left(self._record_starts, end) if end != float("inf") else len(
            self._record_starts
        )
        return range(lo, hi)

    def _covers_full_history(self, start: float, end: float) -> bool:
        if not self.step_records:
            return True
        return start <= self._record_starts[0] and end >= self._record_ends[-1]

    def runtime_breakdown(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Seconds spent per step kind within ``[start, end]``."""
        end = end if end is not None else float("inf")
        if self._covers_full_history(start, end):
            breakdown = dict(self._full_breakdown)
        else:
            breakdown = {"prefill": 0.0, "decode": 0.0, "mixed": 0.0, "idle": 0.0}
            for index in self._window_indices(start, end):
                record = self.step_records[index]
                record_end = record.start + record.duration
                overlap = min(record_end, end) - max(record.start, start)
                if overlap > 0:
                    breakdown[record.kind] += overlap
        if self._idle_since is not None:
            # Account the idle period that is still open at observation time.
            open_end = min(self.env.now, end)
            overlap = open_end - max(self._idle_since, start)
            if overlap > 0:
                breakdown["idle"] += overlap
        return breakdown

    def kv_memory_stats(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Time-weighted average and maximum active KV-cache bytes in a window."""
        end = end if end is not None else float("inf")
        if self._covers_full_history(start, end):
            total_time = self._full_kv_time
            weighted = self._full_kv_weighted
            maximum = self._full_kv_max
        else:
            total_time = 0.0
            weighted = 0.0
            maximum = 0.0
            for index in self._window_indices(start, end):
                record = self.step_records[index]
                record_end = record.start + record.duration
                overlap = min(record_end, end) - max(record.start, start)
                if overlap <= 0:
                    continue
                total_time += overlap
                weighted += record.kv_bytes_active * overlap
                maximum = max(maximum, record.kv_bytes_active)
        average = weighted / total_time if total_time > 0 else 0.0
        return {"average_bytes": average, "max_bytes": maximum}
