"""Synthetic tokenizer and prompt representation.

The reproduction does not need real text, but it does need *token identity*:
prefix caching only works if the same logical content produces the same token
ids every time it is embedded in a prompt, and the paper's token-breakdown
analysis (Fig. 8) needs every prompt token attributed to a segment category
(instruction / few-shot / user / LLM history / tool history).

Prompts are therefore lists of :class:`TokenSpan` objects.  A span carries a
segment kind and a tuple of integer token ids; ids are derived
deterministically from text (word hashing) or from a named synthetic stream,
so identical content always maps to identical ids.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Tuple


#: One 32-byte stream digest as its eight little-endian 32-bit words.
_EIGHT_WORDS = struct.Struct("<8I")


class SegmentKind(str, Enum):
    """Prompt segment categories from the paper's token-breakdown analysis."""

    INSTRUCTION = "instruction"
    FEW_SHOT = "few_shot"
    USER = "user"
    LLM_HISTORY = "llm_history"
    TOOL_HISTORY = "tool_history"
    OUTPUT = "output"


@dataclass(frozen=True)
class TokenSpan:
    """A run of tokens with a single segment kind."""

    kind: SegmentKind
    tokens: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Prompt:
    """A prompt assembled from labelled token spans."""

    spans: List[TokenSpan] = field(default_factory=list)

    def append(self, span: TokenSpan) -> "Prompt":
        if span.tokens:
            self.spans.append(span)
        return self

    def extend(self, spans: Iterable[TokenSpan]) -> "Prompt":
        for span in spans:
            self.append(span)
        return self

    def copy(self) -> "Prompt":
        return Prompt(spans=list(self.spans))

    @property
    def token_ids(self) -> Tuple[int, ...]:
        ids: List[int] = []
        for span in self.spans:
            ids.extend(span.tokens)
        return tuple(ids)

    def __len__(self) -> int:
        return sum(len(span) for span in self.spans)

    def count_by_kind(self) -> Dict[SegmentKind, int]:
        """Token counts per segment kind (missing kinds map to zero)."""
        counts = {kind: 0 for kind in SegmentKind}
        for span in self.spans:
            counts[span.kind] += len(span)
        return counts


class SyntheticTokenizer:
    """Deterministic text/stream -> token-id mapping.

    Two entry points:

    * :meth:`encode` hashes whitespace-separated words of real text into a
      stable id per word (plus a sub-token expansion factor, so token counts
      look like BPE counts rather than word counts).
    * :meth:`synthetic_tokens` produces ``count`` ids that are a pure function
      of a stream name -- used for generated content whose only relevant
      property is its length and identity (LLM outputs, synthetic documents).
    """

    def __init__(self, vocab_size: int = 128256, tokens_per_word: float = 1.3):
        if vocab_size <= 1:
            raise ValueError("vocab_size must be > 1")
        self.vocab_size = vocab_size
        self.tokens_per_word = tokens_per_word
        # Both mappings are pure functions of their key (given the tokenizer
        # config), so memoizing them is invisible except for speed: agent
        # prompts re-encode the same instruction text and re-emit the same
        # content streams on every LLM call of an episode.
        self._word_cache: Dict[str, Tuple[int, ...]] = {}
        self._stream_cache: Dict[str, Tuple[int, ...]] = {}

    def _hash_id(self, text: str, salt: int = 0) -> int:
        digest = hashlib.blake2b(
            f"{salt}:{text}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") % self.vocab_size

    def encode(self, text: str) -> Tuple[int, ...]:
        """Encode real text into deterministic token ids."""
        if not text:
            return ()
        ids: List[int] = []
        cache = self._word_cache
        for word in text.split():
            cached = cache.get(word)
            if cached is None:
                n_sub = max(1, round(len(word) * self.tokens_per_word / 5.0))
                cached = tuple(self._hash_id(word, salt=sub) for sub in range(n_sub))
                cache[word] = cached
            ids.extend(cached)
        return tuple(ids)

    def count(self, text: str) -> int:
        """Token count of ``text`` without materialising ids."""
        return len(self.encode(text))

    def synthetic_tokens(self, stream: str, count: int) -> Tuple[int, ...]:
        """The first ``count`` deterministic token ids of a named content stream.

        Ids come in independent 8-id blocks -- one 32-byte digest of
        ``"{stream}:{block_index}"`` each, read as eight little-endian
        32-bit words -- so a memoized stream grows by whole blocks without
        re-hashing its prefix.
        """
        if count <= 0:
            return ()
        cached = self._stream_cache.get(stream, ())
        if len(cached) < count:
            # Grow the memoized stream by whole blocks (the cache length is
            # always a multiple of 8, so the next digest index is exact).
            words: List[int] = []
            for block_index in range(len(cached) // 8, -(-count // 8)):
                digest = hashlib.blake2b(
                    f"{stream}:{block_index}".encode("utf-8"), digest_size=32
                ).digest()
                words += _EIGHT_WORDS.unpack(digest)
            vocab = self.vocab_size
            cached += tuple([word % vocab for word in words])
            self._stream_cache[stream] = cached
        if count == len(cached):
            return cached
        return cached[:count]

    def forget_stream(self, stream: str) -> None:
        """Drop ``stream`` from the memo (it is rebuilt, identically, on demand)."""
        self._stream_cache.pop(stream, None)

    def span(self, kind: SegmentKind, stream: str, count: int) -> TokenSpan:
        """Convenience constructor for a synthetic span."""
        return TokenSpan(kind=kind, tokens=self.synthetic_tokens(stream, count))

    def text_span(self, kind: SegmentKind, text: str) -> TokenSpan:
        return TokenSpan(kind=kind, tokens=self.encode(text))


def block_hashes(
    token_ids: Sequence[int],
    block_size: int,
    prefix_hashes: Sequence[int] = (),
) -> List[int]:
    """Chained hashes of full token blocks, as used by vLLM prefix caching.

    Block ``i``'s hash covers all tokens of blocks ``0..i``, so two sequences
    share hashes exactly for their common full-block prefix.

    ``prefix_hashes`` optionally carries already-computed hashes for the
    leading blocks of ``token_ids`` (e.g. a request's prompt hashes when
    hashing prompt + generated tokens at free time); the chain resumes after
    them instead of re-hashing the shared prefix.  Hashing is the dominant
    cost of prefix-cache bookkeeping, so callers that see the same sequence
    repeatedly should cache and pass these.

    Like vLLM's original prefix-cache keys, the per-block hash is Python's
    built-in tuple hash over (parent hash, block tokens).  For int tuples
    this is deterministic across processes (PYTHONHASHSEED only perturbs
    str/bytes), and cache hits only ever compare hashes of equal content,
    so the choice of hash function does not affect hit patterns.
    """
    hashes: List[int] = list(prefix_hashes)
    previous = hashes[-1] if hashes else 0
    full_blocks = len(token_ids) // block_size
    for block_index in range(len(hashes), full_blocks):
        previous = hash(
            (previous, tuple(token_ids[block_index * block_size : (block_index + 1) * block_size]))
        )
        hashes.append(previous)
    return hashes
