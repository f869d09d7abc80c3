"""Paged KV-cache block allocator (PagedAttention-style).

GPU memory left over after weights and activation workspace is carved into
fixed-size blocks of ``block_size`` tokens.  Sequences own lists of blocks via
reference counts; blocks whose reference count drops to zero but that carry a
content hash stay *evictable* -- they still hold reusable KV state for prefix
caching and are only recycled (LRU) when a fresh allocation needs space.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.llm.hardware import ClusterSpec
from repro.llm.models import ModelSpec


@dataclass(frozen=True)
class KVCacheConfig:
    """Sizing and behaviour of the paged KV cache."""

    block_size: int = 16
    num_blocks: int = 0
    bytes_per_block: float = 0.0
    enable_prefix_caching: bool = True

    @classmethod
    def from_hardware(
        cls,
        model: ModelSpec,
        cluster: ClusterSpec,
        block_size: int = 16,
        enable_prefix_caching: bool = True,
        capacity_fraction: float = 1.0,
    ) -> "KVCacheConfig":
        """Size the cache from the hardware's post-weights memory budget.

        ``capacity_fraction`` scales the derived block count (1.0 = the full
        budget): shrinking it models a smaller prefix-cache working set
        without changing the hardware spec, the capacity axis of the
        sessions study.
        """
        bytes_per_block = model.kv_bytes_per_token * block_size
        num_blocks = int(cluster.kv_cache_bytes(model) // bytes_per_block)
        if capacity_fraction != 1.0:
            if not 0 < capacity_fraction <= 1:
                raise ValueError("capacity_fraction must be in (0, 1]")
            num_blocks = max(1, int(num_blocks * capacity_fraction))
        return cls(
            block_size=block_size,
            num_blocks=num_blocks,
            bytes_per_block=bytes_per_block,
            enable_prefix_caching=enable_prefix_caching,
        )


@dataclass(slots=True)
class Block:
    """One KV-cache block."""

    block_id: int
    ref_count: int = 0
    content_hash: Optional[int] = None


class KVCacheOutOfMemory(Exception):
    """Raised when an allocation cannot be satisfied even after eviction."""


class BlockAllocator:
    """Reference-counted block pool with LRU eviction of cached blocks."""

    def __init__(self, config: KVCacheConfig):
        if config.num_blocks <= 0:
            raise ValueError("KV cache must have at least one block")
        self.config = config
        # Block records and the fresh-id pool materialize lazily: a cluster
        # holds hundreds of thousands of blocks and most runs touch a small
        # fraction, so eagerly building both lists dominates engine setup.
        # ``_free`` holds only *released* ids; untouched ids are handed out
        # from ``_next_fresh`` downward, exactly the order the historical
        # eager free list (``list(range(n)).pop()``) produced.
        self.blocks: Dict[int, Block] = {}
        self._free: List[int] = []
        self._next_fresh: int = config.num_blocks - 1
        # Evictable cached blocks in LRU order (block_id -> None).
        self._evictable: "OrderedDict[int, None]" = OrderedDict()
        # content hash -> block id for cached (evictable or referenced) blocks.
        self.hash_to_block: Dict[int, int] = {}
        self.eviction_count: int = 0

    # -- capacity ------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    @property
    def num_free_blocks(self) -> int:
        """Blocks available for new allocations (never-used + evictable)."""
        return len(self._free) + self._next_fresh + 1 + len(self._evictable)

    @property
    def num_active_blocks(self) -> int:
        """Blocks currently referenced by at least one sequence."""
        return self.config.num_blocks - self.num_free_blocks

    @property
    def active_bytes(self) -> float:
        return self.num_active_blocks * self.config.bytes_per_block

    def can_allocate(self, n_blocks: int) -> bool:
        return n_blocks <= self.num_free_blocks

    # -- allocation ------------------------------------------------------------
    def allocate(self, n_blocks: int) -> List[int]:
        """Allocate ``n_blocks`` fresh blocks, evicting cached blocks if needed."""
        if n_blocks < 0:
            raise ValueError("cannot allocate a negative number of blocks")
        if not self.can_allocate(n_blocks):
            raise KVCacheOutOfMemory(
                f"requested {n_blocks} blocks, only {self.num_free_blocks} free"
            )
        allocated: List[int] = []
        for _ in range(n_blocks):
            if self._free:
                block_id = self._free.pop()
            elif self._next_fresh >= 0:
                block_id = self._next_fresh
                self._next_fresh -= 1
            else:
                block_id, _ = self._evictable.popitem(last=False)  # LRU
                self._evict(block_id)
            block = self._block(block_id)
            block.ref_count = 1
            block.content_hash = None
            allocated.append(block_id)
        return allocated

    def _block(self, block_id: int) -> Block:
        block = self.blocks.get(block_id)
        if block is None:
            block = Block(block_id=block_id)
            self.blocks[block_id] = block
        return block

    def _evict(self, block_id: int) -> None:
        block = self._block(block_id)
        if block.content_hash is not None:
            self.hash_to_block.pop(block.content_hash, None)
            block.content_hash = None
        self.eviction_count += 1

    # -- reference counting -----------------------------------------------------
    def acquire(self, block_id: int) -> None:
        """Take an additional reference on a (possibly evictable) cached block."""
        block = self._block(block_id)
        if block.ref_count == 0:
            self._evictable.pop(block_id, None)
        block.ref_count += 1

    def release(self, block_id: int) -> None:
        """Drop a reference; unreferenced blocks become evictable or free."""
        block = self._block(block_id)
        if block.ref_count <= 0:
            raise ValueError(f"release of unreferenced block {block_id}")
        block.ref_count -= 1
        if block.ref_count == 0:
            if block.content_hash is not None and self.config.enable_prefix_caching:
                self._evictable[block_id] = None
            else:
                block.content_hash = None
                self._free.append(block_id)

    def acquire_many(self, block_ids: "Iterable[int]") -> None:
        """:meth:`acquire` for a run of blocks, resolving shared state once.

        Sequence setup and teardown touch every block of a request (often
        hundreds), so these batch variants inline the per-block logic with
        the instance dicts bound to locals.  Each performs the identical
        state transitions in the identical order to calling the scalar
        method per block.
        """
        blocks = self.blocks
        evictable = self._evictable
        for block_id in block_ids:
            block = blocks.get(block_id)
            if block is None:
                block = Block(block_id=block_id)
                blocks[block_id] = block
            if block.ref_count == 0:
                evictable.pop(block_id, None)
            block.ref_count += 1

    def release_many(self, block_ids: "Iterable[int]") -> None:
        """:meth:`release` for a run of blocks (see :meth:`acquire_many`)."""
        blocks = self.blocks
        evictable = self._evictable
        free = self._free
        caching = self.config.enable_prefix_caching
        for block_id in block_ids:
            block = blocks.get(block_id)
            if block is None:
                block = Block(block_id=block_id)
                blocks[block_id] = block
            if block.ref_count <= 0:
                raise ValueError(f"release of unreferenced block {block_id}")
            block.ref_count -= 1
            if block.ref_count == 0:
                if block.content_hash is not None and caching:
                    evictable[block_id] = None
                else:
                    block.content_hash = None
                    free.append(block_id)

    def register_hashes(
        self, pairs: "Iterable[tuple[int, int]]"
    ) -> List["tuple[int, int]"]:
        """:meth:`register_hash` for ``(block_id, content_hash)`` pairs;
        returns the pairs skipped because another block holds the hash."""
        skipped: List["tuple[int, int]"] = []
        if not self.config.enable_prefix_caching:
            return skipped
        blocks = self.blocks
        hash_to_block = self.hash_to_block
        for block_id, content_hash in pairs:
            block = blocks.get(block_id)
            if block is None:
                block = Block(block_id=block_id)
                blocks[block_id] = block
            existing = hash_to_block.get(content_hash)
            if existing is not None and existing != block_id:
                skipped.append((block_id, content_hash))
                continue
            block.content_hash = content_hash
            hash_to_block[content_hash] = block_id
        return skipped

    # -- prefix-cache integration -----------------------------------------------
    def register_hash(self, block_id: int, content_hash: int) -> None:
        """Record that ``block_id`` holds the KV state for ``content_hash``."""
        if not self.config.enable_prefix_caching:
            return
        block = self._block(block_id)
        existing = self.hash_to_block.get(content_hash)
        if existing is not None and existing != block_id:
            # Another block already caches this content; keep the existing one.
            return
        block.content_hash = content_hash
        self.hash_to_block[content_hash] = block_id

    # -- introspection -----------------------------------------------------------
    def ref_count(self, block_id: int) -> int:
        block = self.blocks.get(block_id)
        return block.ref_count if block is not None else 0
