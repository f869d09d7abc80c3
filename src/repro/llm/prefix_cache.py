"""Prefix caching and per-sequence block-table management.

This layer sits between the scheduler and the raw block allocator.  It

* finds the longest cached prefix of a request's prompt (block granularity,
  chained block hashes) and reuses those blocks instead of recomputing them,
* allocates fresh blocks for the rest of the prompt and for generated tokens,
* registers newly computed full blocks in the cache so later LLM calls of the
  same agent request (which share the growing interaction history) and other
  requests (which share instruction/few-shot prefixes) can reuse them,
* frees sequences on completion while leaving cached blocks evictable.

With ``enable_prefix_caching=False`` every request recomputes and stores its
entire context privately, matching the paper's "w/o prefix caching" baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.llm.kvcache import BlockAllocator, KVCacheConfig, KVCacheOutOfMemory
from repro.llm.request import LLMRequest
from repro.llm.tokenizer import block_hashes


@dataclass
class SequenceAllocation:
    """Block table and cache-hit information for a scheduled request."""

    request_id: int
    block_ids: List[int]
    num_cached_tokens: int
    block_hashes: List[int]
    # Prompt blocks whose hashes are already published to the cache.  Atomic
    # prefill registers every full prompt block at admission; chunked prefill
    # defers and advances this watermark at each chunk boundary.
    num_registered_blocks: int = 0


class PrefixCache:
    """Prefix-aware KV-cache manager for the serving engine."""

    def __init__(self, config: KVCacheConfig):
        self.config = config
        self.block_size: int = config.block_size
        self.allocator = BlockAllocator(config)
        self._allocations: Dict[int, SequenceAllocation] = {}
        # Cumulative counters for cache-efficiency reporting.
        self.cached_token_hits: int = 0
        self.prompt_tokens_seen: int = 0

    # -- inspection -------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.config.enable_prefix_caching

    def peek_cached_tokens(
        self, token_ids: Sequence[int], hashes: Optional[Sequence[int]] = None
    ) -> int:
        """Number of prompt tokens that would hit the cache (no side effects)."""
        if not self.enabled:
            return 0
        if hashes is None:
            hashes = block_hashes(token_ids, self.block_size)
        hits = 0
        lookup = self.allocator.hash_to_block.get
        for content_hash in hashes:
            if lookup(content_hash) is None:
                break
            hits += 1
        return hits * self.block_size

    def blocks_needed(self, request: LLMRequest) -> int:
        """Blocks a prefill allocation would need for ``request`` right now."""
        total_tokens = request.num_prompt_tokens
        cached_tokens = self.peek_cached_tokens(
            request.prompt_token_ids,
            hashes=request.prompt_block_hashes(self.block_size),
        )
        cached_blocks = cached_tokens // self.block_size
        total_blocks = -(-total_tokens // self.block_size)  # ceil
        return total_blocks - cached_blocks

    def hit_rate(self) -> float:
        if self.prompt_tokens_seen == 0:
            return 0.0
        return self.cached_token_hits / self.prompt_tokens_seen

    def active_bytes(self) -> float:
        return self.allocator.active_bytes

    def active_blocks(self) -> int:
        return self.allocator.num_active_blocks

    def num_free_blocks(self) -> int:
        return self.allocator.num_free_blocks

    # -- prefill ------------------------------------------------------------
    def allocate_sequence(
        self,
        request: LLMRequest,
        now: float = 0.0,
        defer_registration: bool = False,
    ) -> Optional[SequenceAllocation]:
        """Allocate the block table for ``request``'s prompt.

        Returns ``None`` when the KV cache cannot currently hold the request
        (the scheduler will retry later or preempt).  At most one token of
        prefill work is always left even on a full-prefix hit, mirroring
        vLLM's requirement to recompute the final token for sampling.

        With ``defer_registration=True`` (chunked prefill) the hashes of
        freshly computed prompt blocks are *not* published at admission;
        the engine publishes them as chunks actually complete via
        :meth:`register_prefill_progress`, so concurrent requests only hit
        blocks whose KV entries exist.
        """
        if request.request_id in self._allocations:
            raise ValueError(f"request {request.request_id} already allocated")

        hashes = request.prompt_block_hashes(self.block_size)
        cached_block_ids: List[int] = []
        if self.enabled:
            lookup = self.allocator.hash_to_block.get
            for content_hash in hashes:
                block_id = lookup(content_hash)
                if block_id is None:
                    break
                cached_block_ids.append(block_id)

        num_cached_tokens = len(cached_block_ids) * self.block_size
        # Keep at least one token to compute so the engine produces logits.
        if num_cached_tokens >= request.num_prompt_tokens:
            cached_block_ids = cached_block_ids[:-1]
            num_cached_tokens = len(cached_block_ids) * self.block_size

        total_blocks = -(-request.num_prompt_tokens // self.block_size)
        fresh_needed = total_blocks - len(cached_block_ids)
        # Acquiring an evictable cached block removes it from the free pool,
        # so those acquisitions count against the fresh allocation too --
        # otherwise a tightly-packed cache passes the check here and blows up
        # inside ``allocate`` below.
        blocks = self.allocator.blocks
        evictable_cached = sum(
            1
            for block_id in cached_block_ids
            if (block := blocks.get(block_id)) is None or block.ref_count == 0
        )
        if not self.allocator.can_allocate(fresh_needed + evictable_cached):
            return None

        self.allocator.acquire_many(cached_block_ids, now=now)
        fresh_ids = self.allocator.allocate(fresh_needed, now=now)

        block_ids = list(cached_block_ids) + fresh_ids
        allocation = SequenceAllocation(
            request_id=request.request_id,
            block_ids=block_ids,
            num_cached_tokens=num_cached_tokens,
            block_hashes=hashes,
        )
        self._allocations[request.request_id] = allocation

        # Register the hashes of freshly computed *full* prompt blocks so other
        # requests (and later iterations of the same agent) can reuse them.
        full_prompt_blocks = request.num_prompt_tokens // self.block_size
        if self.enabled and not defer_registration:
            start = len(cached_block_ids)
            self.allocator.register_hashes(
                zip(block_ids[start:full_prompt_blocks], hashes[start:full_prompt_blocks])
            )
            allocation.num_registered_blocks = full_prompt_blocks
        else:
            allocation.num_registered_blocks = len(cached_block_ids)

        request.block_ids = block_ids
        request.num_cached_tokens = num_cached_tokens
        self.prompt_tokens_seen += request.num_prompt_tokens
        self.cached_token_hits += num_cached_tokens
        return allocation

    def register_prefill_progress(
        self, request: LLMRequest, num_computed_tokens: int, now: float = 0.0
    ) -> None:
        """Publish hashes of prompt blocks completed by a prefill chunk.

        Called by the engine at each chunk boundary with the request's total
        computed-prompt-token count.  Blocks that became full since the last
        boundary are registered so concurrent requests sharing the prefix can
        start hitting them mid-prefill -- the chunk-granular analogue of the
        atomic path's admission-time registration.
        """
        if not self.enabled:
            return
        allocation = self._allocations.get(request.request_id)
        if allocation is None:
            raise KeyError(f"request {request.request_id} has no allocation")
        full_prompt_blocks = request.num_prompt_tokens // self.block_size
        computed_blocks = min(num_computed_tokens // self.block_size, full_prompt_blocks)
        start = allocation.num_registered_blocks
        if computed_blocks <= start:
            return
        self.allocator.register_hashes(
            zip(
                allocation.block_ids[start:computed_blocks],
                allocation.block_hashes[start:computed_blocks],
            )
        )
        allocation.num_registered_blocks = computed_blocks

    # -- decode -------------------------------------------------------------
    def spare_tokens(self, request: LLMRequest) -> int:
        """Tokens ``request``'s block table still covers beyond its context.

        Negative while a sequence re-admitted after recompute preemption is
        still re-growing its table (it was allocated its prompt's blocks
        only).  The next token needs a block exactly when this is ``<= 0``.
        """
        return (
            len(request.block_ids) * self.block_size
            - request.num_prompt_tokens
            - request.num_output_tokens
        )

    def append_token(self, request: LLMRequest, now: float = 0.0) -> bool:
        """Reserve KV space for one generated token; False if out of memory."""
        if request.request_id not in self._allocations:
            raise KeyError(f"request {request.request_id} has no allocation")
        if self.spare_tokens(request) > 0:
            return True
        if not self.allocator.can_allocate(1):
            return False
        self.append_block(request, now=now)
        return True

    def append_block(self, request: LLMRequest, now: float = 0.0) -> None:
        """Grow ``request``'s block table by one block.

        For callers that already know the next token needs exactly one
        block and that the free pool holds it (:meth:`append_token` checks
        both; the engine's decode-run plan proves them ahead of time).
        """
        allocation = self._allocations[request.request_id]
        allocation.block_ids.append(self.allocator.allocate(1, now=now)[0])
        request.block_ids = allocation.block_ids

    def reserve_tokens(self, request: LLMRequest, num_tokens: int, now: float = 0.0) -> bool:
        """Reserve KV space for ``num_tokens`` upcoming tokens in one call.

        Used by speculative decoding, which grows the context by every
        accepted token in one simulated step.  Allocates every
        block the grown context needs (not just one), so block accounting
        stays exact; returns ``False`` without allocating anything when the
        free pool cannot cover the growth.
        """
        allocation = self._allocations.get(request.request_id)
        if allocation is None:
            raise KeyError(f"request {request.request_id} has no allocation")
        target_blocks = -(-(request.context_length + num_tokens) // self.block_size)
        extra = target_blocks - len(allocation.block_ids)
        if extra <= 0:
            return True
        if not self.allocator.can_allocate(extra):
            return False
        allocation.block_ids.extend(self.allocator.allocate(extra, now=now))
        request.block_ids = allocation.block_ids
        return True

    # -- teardown -----------------------------------------------------------
    def free_sequence(self, request: LLMRequest, now: float = 0.0) -> None:
        """Release the request's blocks, caching full blocks of its context."""
        allocation = self._allocations.pop(request.request_id, None)
        if allocation is None:
            return
        if self.enabled:
            # Cache every full block of prompt + generated tokens so the next
            # LLM call of this agent (whose prompt extends this context) hits.
            all_tokens = request.all_token_ids()
            # Resume the hash chain after the request's memoized prompt
            # hashes: prompt + output shares its full-block prompt prefix.
            hashes = block_hashes(
                all_tokens, self.block_size,
                prefix_hashes=request.prompt_block_hashes(self.block_size),
            )
            computed = request.num_computed_tokens
            if 0 < computed < request.num_prompt_tokens:
                # Chunked prefill was interrupted mid-prompt: only blocks
                # whose KV entries were actually computed may be published.
                limit = computed // self.block_size
                self.allocator.register_hashes(
                    zip(allocation.block_ids[:limit], hashes[:limit])
                )
            else:
                self.allocator.register_hashes(zip(allocation.block_ids, hashes))
        self.allocator.release_many(allocation.block_ids, now=now)
        request.block_ids = []

    def release_for_preemption(self, request: LLMRequest, now: float = 0.0) -> None:
        """Free blocks of a preempted request (recompute-style preemption)."""
        self.free_sequence(request, now=now)
        request.num_cached_tokens = 0
        request.num_computed_tokens = 0
