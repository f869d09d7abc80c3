"""Tests for the paged KV-cache block allocator and prefix cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import KVCacheConfig, BlockAllocator, PrefixCache
from repro.llm.kvcache import KVCacheOutOfMemory
from repro.llm.models import LLAMA_3_1_8B
from repro.llm.hardware import cluster_for_model
from repro.llm.request import LLMRequest, SamplingParams
from repro.llm.tokenizer import Prompt, SegmentKind, SyntheticTokenizer, block_hashes

TOKENIZER = SyntheticTokenizer()


def small_config(num_blocks: int = 64, enable_prefix_caching: bool = True) -> KVCacheConfig:
    return KVCacheConfig(
        block_size=16,
        num_blocks=num_blocks,
        bytes_per_block=16 * LLAMA_3_1_8B.kv_bytes_per_token,
        enable_prefix_caching=enable_prefix_caching,
    )


def make_request(prompt_tokens: int, output_tokens: int = 8, stream: str = "req") -> LLMRequest:
    prompt = Prompt()
    prompt.append(TOKENIZER.span(SegmentKind.USER, stream, prompt_tokens))
    return LLMRequest(prompt=prompt, sampling=SamplingParams(output_tokens=output_tokens))


class TestKVCacheConfig:
    def test_from_hardware_produces_sane_block_count(self):
        config = KVCacheConfig.from_hardware(LLAMA_3_1_8B, cluster_for_model(LLAMA_3_1_8B))
        # ~18 GB of KV space at 128 KiB/token and 16-token blocks -> thousands of blocks.
        assert 2000 < config.num_blocks < 20000

    def test_zero_blocks_rejected_by_allocator(self):
        with pytest.raises(ValueError):
            BlockAllocator(KVCacheConfig(block_size=16, num_blocks=0, bytes_per_block=1.0))


class TestBlockAllocator:
    def test_allocate_and_free_counts(self):
        allocator = BlockAllocator(small_config(16))
        blocks = allocator.allocate(4)
        assert len(blocks) == 4
        assert allocator.num_active_blocks == 4
        assert allocator.num_free_blocks == 12
        for block_id in blocks:
            allocator.release(block_id)
        assert allocator.num_active_blocks == 0
        assert allocator.num_free_blocks == 16

    def test_allocate_too_many_raises(self):
        allocator = BlockAllocator(small_config(8))
        with pytest.raises(KVCacheOutOfMemory):
            allocator.allocate(9)

    def test_negative_allocation_raises(self):
        allocator = BlockAllocator(small_config(8))
        with pytest.raises(ValueError):
            allocator.allocate(-1)

    def test_release_unreferenced_block_raises(self):
        allocator = BlockAllocator(small_config(8))
        with pytest.raises(ValueError):
            allocator.release(0)

    def test_cached_blocks_stay_evictable_after_release(self):
        allocator = BlockAllocator(small_config(8))
        block_id = allocator.allocate(1)[0]
        allocator.register_hash(block_id, content_hash=123)
        allocator.release(block_id)
        # The block is reusable both as a cached block and as free capacity.
        assert allocator.hash_to_block[123] == block_id
        assert allocator.num_free_blocks == 8

    def test_without_prefix_caching_release_forgets_hash(self):
        allocator = BlockAllocator(small_config(8, enable_prefix_caching=False))
        block_id = allocator.allocate(1)[0]
        allocator.register_hash(block_id, content_hash=123)
        allocator.release(block_id)
        assert 123 not in allocator.hash_to_block

    def test_eviction_removes_hash_mapping(self):
        allocator = BlockAllocator(small_config(4))
        blocks = allocator.allocate(4)
        for index, block_id in enumerate(blocks):
            allocator.register_hash(block_id, content_hash=1000 + index)
            allocator.release(block_id)
        # Cache full of evictable blocks; allocating forces LRU eviction.
        allocator.allocate(2)
        assert allocator.eviction_count == 2
        assert len(allocator.hash_to_block) == 2

    def test_lru_eviction_order(self):
        allocator = BlockAllocator(small_config(3))
        blocks = allocator.allocate(3)
        for index, block_id in enumerate(blocks):
            allocator.register_hash(block_id, content_hash=index)
            allocator.release(block_id)
        allocator.allocate(1)
        # Release order is the LRU order: the block released earliest
        # (hash 0) must have been evicted first.
        assert 0 not in allocator.hash_to_block
        assert 1 in allocator.hash_to_block

    def test_acquire_increments_refcount_of_cached_block(self):
        allocator = BlockAllocator(small_config(4))
        block_id = allocator.allocate(1)[0]
        allocator.register_hash(block_id, content_hash=5)
        allocator.release(block_id)
        allocator.acquire(block_id)
        assert allocator.ref_count(block_id) == 1
        assert allocator.num_active_blocks == 1

    def test_shared_block_refcounting(self):
        allocator = BlockAllocator(small_config(4))
        block_id = allocator.allocate(1)[0]
        allocator.acquire(block_id)
        assert allocator.ref_count(block_id) == 2
        allocator.release(block_id)
        assert allocator.num_active_blocks == 1
        allocator.release(block_id)
        assert allocator.num_active_blocks == 0

    def test_active_bytes_tracks_blocks(self):
        config = small_config(8)
        allocator = BlockAllocator(config)
        allocator.allocate(3)
        assert allocator.active_bytes == pytest.approx(3 * config.bytes_per_block)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_allocate_release_never_leaks(self, sizes):
        allocator = BlockAllocator(small_config(128))
        held = []
        for size in sizes:
            held.append(allocator.allocate(size))
        for blocks in held:
            for block_id in blocks:
                allocator.release(block_id)
        assert allocator.num_active_blocks == 0
        assert allocator.num_free_blocks == 128


class TestPrefixCache:
    def test_allocation_assigns_blocks_and_no_cache_hit_first_time(self):
        cache = PrefixCache(small_config(64))
        request = make_request(100)
        allocation = cache.allocate_sequence(request)
        assert allocation is not None
        assert allocation.num_cached_tokens == 0
        assert len(allocation.block_ids) == 7  # ceil(100 / 16)

    def test_second_identical_request_hits_cache(self):
        cache = PrefixCache(small_config(64))
        first = make_request(100, stream="shared")
        cache.allocate_sequence(first)
        cache.free_sequence(first)
        second = make_request(100, stream="shared")
        allocation = cache.allocate_sequence(second)
        # All full blocks except the mandatory last-token block are reused.
        assert allocation.num_cached_tokens == 96

    def test_cache_hit_on_growing_context(self):
        cache = PrefixCache(small_config(64))
        tokenizer = TOKENIZER
        base = Prompt()
        base.append(tokenizer.span(SegmentKind.INSTRUCTION, "grow", 64))
        first = LLMRequest(prompt=base.copy(), sampling=SamplingParams(output_tokens=4))
        cache.allocate_sequence(first)
        cache.free_sequence(first)

        extended = base.copy()
        extended.append(tokenizer.span(SegmentKind.TOOL_HISTORY, "obs", 64))
        second = LLMRequest(prompt=extended, sampling=SamplingParams(output_tokens=4))
        allocation = cache.allocate_sequence(second)
        assert allocation.num_cached_tokens == 64

    def test_disabled_cache_never_hits(self):
        cache = PrefixCache(small_config(64, enable_prefix_caching=False))
        first = make_request(100, stream="shared")
        cache.allocate_sequence(first)
        cache.free_sequence(first)
        second = make_request(100, stream="shared")
        allocation = cache.allocate_sequence(second)
        assert allocation.num_cached_tokens == 0
        assert cache.hit_rate() == 0.0

    def test_cached_blocks_has_no_side_effects(self):
        cache = PrefixCache(small_config(64))
        first = make_request(100, stream="shared")
        cache.allocate_sequence(first)
        cache.free_sequence(first)
        second = make_request(100, stream="shared")
        cached = cache.cached_blocks(second)
        assert len(cached) * cache.block_size == 96
        assert cache.active_blocks() == 0
        assert cache.allocator.num_free_blocks == 64

    def test_allocation_fails_when_cache_too_small(self):
        cache = PrefixCache(small_config(4))
        request = make_request(200)
        assert cache.allocate_sequence(request) is None

    def test_append_token_allocates_new_block_on_boundary(self):
        cache = PrefixCache(small_config(64))
        request = make_request(16, output_tokens=2)
        cache.allocate_sequence(request)
        blocks_before = len(request.block_ids)
        assert cache.append_token(request) is True
        assert len(request.block_ids) == blocks_before + 1

    def test_append_token_fails_when_full(self):
        cache = PrefixCache(small_config(1))
        request = make_request(16, output_tokens=2)
        cache.allocate_sequence(request)
        assert cache.append_token(request) is False

    def test_free_sequence_releases_blocks(self):
        cache = PrefixCache(small_config(64))
        request = make_request(100)
        cache.allocate_sequence(request)
        assert cache.active_blocks() > 0
        cache.free_sequence(request)
        assert cache.active_blocks() == 0
        assert request.block_ids == []

    def test_double_allocate_same_request_raises(self):
        cache = PrefixCache(small_config(64))
        request = make_request(50)
        cache.allocate_sequence(request)
        with pytest.raises(ValueError):
            cache.allocate_sequence(request)

    def test_hit_rate_accumulates(self):
        cache = PrefixCache(small_config(64))
        for _ in range(3):
            request = make_request(96, stream="repeat")
            cache.allocate_sequence(request)
            cache.free_sequence(request)
        assert 0.4 < cache.hit_rate() < 1.0

    def test_shared_prefix_counted_once_in_active_bytes(self):
        cache = PrefixCache(small_config(64))
        first = make_request(96, stream="shared")
        second = make_request(96, stream="shared")
        cache.allocate_sequence(first)
        active_after_first = cache.active_blocks()
        cache.allocate_sequence(second)
        # The second request adds only its private last block.
        assert cache.active_blocks() == active_after_first + 1

    def test_full_prompt_hit_registers_its_given_back_block_once_the_holder_is_evicted(self):
        # A hit on every block of a 32-token prompt gives its last block
        # back; the fresh block that replaces it cannot take the key while
        # the old holder keeps it, and takes it at free once the holder is
        # evicted.
        cache = PrefixCache(small_config(4))
        first = make_request(32, stream="full")
        a0, a1 = cache.allocate_sequence(first).block_ids
        cache.free_sequence(first)
        second = make_request(32, stream="full")
        allocation = cache.allocate_sequence(second)
        assert allocation.num_cached_tokens == 16
        b0, b1 = allocation.block_ids
        key = allocation.block_hashes[1]
        assert b0 == a0 and allocation.unregistered == [(b1, key)]
        hash_to_block = cache.allocator.hash_to_block
        assert hash_to_block[key] == a1
        cache.allocator.allocate(2)  # the never-used block, then evicts a1
        assert key not in hash_to_block
        cache.free_sequence(second)
        assert hash_to_block[key] == b1
        assert cache.cached_blocks(make_request(32, stream="full")) == [a0, b1]

    def test_key_skipped_at_admission_is_registered_at_free_once_its_holder_is_evicted(self):
        # LRU eviction takes the first block of a cached 3-block chain and
        # leaves the other two: a prompt extending it misses at block 0, so
        # its fresh blocks 1 and 2 cannot take keys that old blocks hold.
        cache = PrefixCache(small_config(6))
        first = make_request(48, stream="chain")
        a0, a1, a2 = cache.allocate_sequence(first).block_ids
        cache.free_sequence(first)
        spare = cache.allocator.allocate(4)  # three never-used blocks, then evicts a0
        cache.allocator.release_many(spare)
        second = make_request(49, stream="chain")
        allocation = cache.allocate_sequence(second)
        assert allocation.num_cached_tokens == 0
        keys = allocation.block_hashes
        b1, b2 = allocation.block_ids[1:3]
        assert allocation.unregistered == [(b1, keys[1]), (b2, keys[2])]
        cache.allocator.allocate(1)  # evicts a1, the least recently released
        cache.free_sequence(second)
        hash_to_block = cache.allocator.hash_to_block
        assert hash_to_block[keys[1]] == b1
        assert hash_to_block[keys[2]] == a2


@settings(max_examples=150, deadline=None)
@given(
    block_size=st.sampled_from([1, 3, 16]),
    steps=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.booleans(),
            st.integers(0, 40),
            st.lists(st.integers(0, 2), max_size=40),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_resumed_chains_equal_hashing_from_scratch(block_size, steps):
    # Contexts either extend an earlier one (the chain resumes) or keep a
    # cut of it and diverge (no remembered chain is a prefix, or a shorter
    # one is); every chain must equal block_hashes from block 0.
    cache = PrefixCache(
        KVCacheConfig(block_size=block_size, num_blocks=8, bytes_per_block=1.0)
    )
    contexts = [()]
    for parent, extends, cut, tail in steps:
        base = contexts[parent % len(contexts)]
        ids = base + tuple(tail) if extends else base[:cut] + (3,) + tuple(tail)
        assert cache.chain_hashes(ids) == block_hashes(ids, block_size)
        prefix = block_hashes(base, block_size)
        assert cache.chain_hashes(base + tuple(tail), prefix) == block_hashes(
            base + tuple(tail), block_size
        )
        contexts.append(ids)
