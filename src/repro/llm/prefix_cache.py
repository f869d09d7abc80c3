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

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Deque, Dict, List, Optional, Sequence, Tuple

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
    # (block, hash) pairs skipped at registration (another block held the hash).
    unregistered: List[Tuple[int, int]] = field(default_factory=list)


class PrefixCache:
    """Prefix-aware KV-cache manager for the serving engine."""

    def __init__(self, config: KVCacheConfig):
        self.config = config
        self.block_size: int = config.block_size
        self.allocator = BlockAllocator(config)
        self._allocations: Dict[int, SequenceAllocation] = {}
        # (token ids, their chained block hashes) of the last four sequences
        # hashed; one remembered chain already saves most of the hashing.
        self._chains: Deque[Tuple[Tuple[int, ...], List[int]]] = deque(maxlen=4)
        # Cumulative counters for cache-efficiency reporting.
        self.cached_token_hits: int = 0
        self.prompt_tokens_seen: int = 0

    # -- inspection -------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.config.enable_prefix_caching

    def chain_hashes(
        self, token_ids: Tuple[int, ...], prefix_hashes: Sequence[int] = ()
    ) -> List[int]:
        """:func:`block_hashes` of ``token_ids``, resumed where it is known.

        A block's hash is a pure function of the tokens up to its end, so the
        chain resumes after ``prefix_hashes`` or after the longest remembered
        chain whose ids are a prefix of ``token_ids``, and is remembered in
        turn.  An agent's next prompt extends the context its last call
        hashed, so chains are tried newest first: the rest fail on length.
        """
        resume = prefix_hashes
        for ids, hashes in reversed(self._chains):
            size = len(ids)
            if len(hashes) > len(resume) and size <= len(token_ids) and (
                token_ids[size - 1] == ids[-1] and token_ids[:size] == ids
            ):
                resume = hashes
        hashes = block_hashes(token_ids, self.block_size, resume)
        self._chains.append((token_ids, hashes))
        return hashes

    def prompt_hashes(self, request: LLMRequest) -> List[int]:
        """Chained block hashes of ``request``'s prompt, computed once."""
        if request.prompt_hashes is None:
            request.prompt_hashes = self.chain_hashes(request.prompt_token_ids)
        return request.prompt_hashes

    def cached_blocks(self, request: LLMRequest) -> List[int]:
        """Ids of the cached blocks holding ``request``'s leading prompt blocks.

        An admission's one walk of its prefix, without side effects: the
        scheduler's estimate reads it and :meth:`allocate_sequence` takes it.
        """
        if not self.enabled:
            return []
        cached: List[int] = []
        lookup = self.allocator.hash_to_block.get
        for content_hash in self.prompt_hashes(request):
            block_id = lookup(content_hash)
            if block_id is None:
                break
            cached.append(block_id)
        return cached

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
        defer_registration: bool = False,
        cached_block_ids: Optional[List[int]] = None,
    ) -> Optional[SequenceAllocation]:
        """Allocate the block table for ``request``'s prompt.

        Returns ``None`` when the KV cache cannot currently hold the request
        (the scheduler will retry later or preempt).  At most one token of
        prefill work is always left even on a full-prefix hit, mirroring
        vLLM's requirement to recompute the final token for sampling.
        ``cached_block_ids``: :meth:`cached_blocks`, if just looked up.

        With ``defer_registration=True`` (chunked prefill) the hashes of
        freshly computed prompt blocks are *not* published at admission;
        the engine publishes them as chunks actually complete via
        :meth:`register_prefill_progress`, so concurrent requests only hit
        blocks whose KV entries exist.
        """
        if request.request_id in self._allocations:
            raise ValueError(f"request {request.request_id} already allocated")

        hashes = self.prompt_hashes(request) if self.enabled else []
        if cached_block_ids is None:
            cached_block_ids = self.cached_blocks(request)

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
        # inside ``allocate`` below.  They are counted only when counting
        # every hit does not fit.
        allocator = self.allocator
        if not allocator.can_allocate(fresh_needed + len(cached_block_ids)):
            blocks = allocator.blocks
            evictable_cached = sum(blocks[block_id].ref_count == 0 for block_id in cached_block_ids)
            if not allocator.can_allocate(fresh_needed + evictable_cached):
                return None

        allocator.acquire_many(cached_block_ids)
        block_ids = cached_block_ids + allocator.allocate(fresh_needed)
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
            allocation.unregistered = allocator.register_hashes(
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
        self, request: LLMRequest, num_computed_tokens: int
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
        allocation.unregistered += self.allocator.register_hashes(
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

    def append_token(self, request: LLMRequest) -> bool:
        """Reserve KV space for one generated token; False if out of memory."""
        if request.request_id not in self._allocations:
            raise KeyError(f"request {request.request_id} has no allocation")
        if self.spare_tokens(request) > 0:
            return True
        if not self.allocator.can_allocate(1):
            return False
        self.append_block(request)
        return True

    def append_block(self, request: LLMRequest) -> None:
        """Grow ``request``'s block table by one block.

        For callers that already know the next token needs exactly one
        block and that the free pool holds it (:meth:`append_token` checks
        both; the engine's decode-run plan proves them ahead of time).
        """
        allocation = self._allocations[request.request_id]
        allocation.block_ids.append(self.allocator.allocate(1)[0])
        request.block_ids = allocation.block_ids

    def reserve_tokens(self, request: LLMRequest, num_tokens: int) -> bool:
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
        allocation.block_ids.extend(self.allocator.allocate(extra))
        request.block_ids = allocation.block_ids
        return True

    # -- teardown -----------------------------------------------------------
    def free_sequence(
        self, request: LLMRequest, output_token_ids: Optional[Tuple[int, ...]] = None
    ) -> None:
        """Release the request's blocks, caching full blocks of its context
        (``output_token_ids``: the request's, if the caller produced them)."""
        allocation = self._allocations.pop(request.request_id, None)
        if allocation is None:
            return
        if self.enabled:
            # Cache every full block of prompt + generated tokens so the next
            # LLM call of this agent (whose prompt extends this context) hits.
            if output_token_ids is None:
                output_token_ids = request.output_token_ids
            hashes = self.chain_hashes(
                request.prompt_token_ids + output_token_ids, self.prompt_hashes(request)
            )
            block_ids = allocation.block_ids
            limit = len(block_ids)
            computed = request.num_computed_tokens
            if 0 < computed < request.num_prompt_tokens:
                # Chunked prefill was interrupted mid-prompt: only blocks
                # whose KV entries were actually computed may be published.
                limit = computed // self.block_size
            # Blocks below the watermark hold their hashes already, except
            # the skipped ones, whose holder may have been evicted since.
            start = allocation.num_registered_blocks
            self.allocator.register_hashes(
                chain(allocation.unregistered, zip(block_ids[start:limit], hashes[start:limit]))
            )
        self.allocator.release_many(allocation.block_ids)
        request.block_ids = []

    def release_for_preemption(self, request: LLMRequest) -> None:
        """Free blocks of a preempted request (recompute-style preemption)."""
        self.free_sequence(request)
        request.num_cached_tokens = 0
        request.num_computed_tokens = 0
