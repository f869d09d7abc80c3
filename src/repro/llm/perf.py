"""Roofline performance model for engine steps.

The paper's latency observations follow from two well-known facts about
transformer serving that the model reproduces:

* **Prefill is compute-bound** -- time scales with new prompt tokens
  (quadratic-ish in context via attention), so long agent prompts make
  prefill expensive and prefix caching (which removes cached tokens from the
  prefill) helps a lot.
* **Decode is memory-bound** -- every step reads all weights plus the KV
  cache of every running sequence, so per-token latency is roughly constant
  for small batches and grows slowly with batch size / context length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence

from repro.llm.hardware import ClusterSpec
from repro.llm.models import ModelSpec

#: Relative slack of the decode roofline's upper bound on its FLOP sum.
_FLOP_BOUND_MARGIN = 1.0 + 1e-9


@dataclass(frozen=True)
class PerformanceModel:
    """Computes simulated durations of prefill and decode engine steps."""

    model: ModelSpec
    cluster: ClusterSpec

    # Decode runs once per simulated token, so the hardware-derived constants
    # of its roofline expression are evaluated once.  Each is the exact
    # subexpression the formulas below historically computed inline, so the
    # resulting floats are bit-identical.
    @cached_property
    def _decode_bandwidth(self) -> float:
        return self.cluster.total_mem_bandwidth * self.cluster.gpu.mbu_decode

    @cached_property
    def _peak_compute(self) -> float:
        return self.cluster.total_peak_flops * self.cluster.gpu.mfu_prefill

    @cached_property
    def _step_overhead(self) -> float:
        return self.cluster.step_overhead

    @cached_property
    def _weight_bytes(self) -> float:
        return self.model.weight_bytes

    @cached_property
    def _kv_bytes_per_token(self) -> float:
        return self.model.kv_bytes_per_token

    @cached_property
    def _flops_dense(self) -> float:
        # ModelSpec.flops_per_token's dense term.
        return 2.0 * self.model.n_params

    @cached_property
    def _flops_attn_per_ctx(self) -> float:
        # ModelSpec.flops_per_token's attention coefficient; multiplying it by
        # the context length reproduces the original left-to-right product.
        return 4.0 * self.model.n_layers * self.model.hidden_size

    # -- prefill ----------------------------------------------------------
    def prefill_time(
        self,
        new_tokens: int,
        cached_tokens: int = 0,
    ) -> float:
        """Duration of a prefill step computing ``new_tokens`` prompt tokens.

        ``cached_tokens`` are prefix tokens whose KV entries already exist
        (prefix-cache hit); they contribute attention context but no dense
        compute.
        """
        if new_tokens <= 0:
            return self._step_overhead
        flops = self.model.prefill_flops(new_tokens, cached_tokens)
        compute_time = flops / self._peak_compute
        # Weights still have to be streamed once per step.
        weight_time = self._weight_bytes / self._decode_bandwidth
        return max(compute_time, weight_time) + self._step_overhead

    # -- decode -----------------------------------------------------------
    def decode_step_time(self, context_lengths: Sequence[int]) -> float:
        """Duration of one decode step producing one token per running sequence.

        ``context_lengths`` holds the current context length (prompt +
        generated so far) of each sequence in the running batch.
        """
        return self.decode_run_step_times(context_lengths, 1)[0]

    def decode_run_step_times(
        self, context_lengths: Sequence[int], steps: int
    ) -> List[float]:
        """Durations of ``steps`` consecutive decode steps of one batch.

        Step ``j`` (from 0) is :meth:`decode_step_time` of the lengths
        ``ctx + j``: every sequence gains one token per step.  A step costs
        O(1) until its compute term could matter: the memory term reads only
        the integer sum of the lengths, and the per-sequence FLOP sum is
        evaluated only when a certified upper bound on it reaches the memory
        term.  Below that, ``max()`` returns the memory term whatever the
        exact sum is, so every duration is bit-identical either way.
        """
        batch = len(context_lengths)
        if batch == 0:
            return [0.0] * steps
        kv_per_token = self._kv_bytes_per_token
        weight_bytes = self._weight_bytes
        bandwidth = self._decode_bandwidth
        dense = self._flops_dense
        attn = self._flops_attn_per_ctx
        peak = self._peak_compute
        overhead = self._step_overhead
        batch_dense = batch * dense
        total_context = sum(context_lengths)
        times: List[float] = []
        for step in range(steps):
            kv_bytes = kv_per_token * float(total_context)
            memory_time = (weight_bytes + kv_bytes) / bandwidth
            # Context lengths are non-negative, so the exact sum below is
            # the real ``batch * dense + attn * total`` with a relative
            # rounding error of at most (batch + 2) * 2**-53; evaluating
            # this bound adds five more roundings.  The 1e-9 margin covers
            # both for any batch below 9e6, so the bound is at least the
            # exact compute term.
            bound = (batch_dense + attn * total_context) * _FLOP_BOUND_MARGIN / peak
            if bound < memory_time:
                times.append(memory_time + overhead)
            else:
                # Same per-element expression and summation order as
                # calling ModelSpec.flops_per_token per sequence.
                flops = sum([dense + attn * max(ctx + step, 0.0) for ctx in context_lengths])
                times.append(max(memory_time, flops / peak) + overhead)
            total_context += batch
        return times

    # -- mixed (chunked prefill) ------------------------------------------
    def mixed_step_time(
        self,
        new_tokens: int,
        cached_tokens: int,
        context_lengths: Sequence[int],
    ) -> float:
        """Duration of one step co-scheduling prefill chunks with decode.

        Under chunked prefill the engine batches ``new_tokens`` prompt tokens
        (``cached_tokens`` of attention context already resident) together
        with one decode token for each sequence in ``context_lengths``.  The
        step is a single roofline evaluation over the combined work: FLOPs
        add (one forward pass covers both), weights stream once, and the KV
        reads of the decode sequences ride along on the memory side.
        """
        if not context_lengths:
            return self.prefill_time(new_tokens, cached_tokens)
        if new_tokens <= 0:
            return self.decode_step_time(context_lengths)
        flops = self.model.prefill_flops(new_tokens, cached_tokens)
        dense = self._flops_dense
        attn = self._flops_attn_per_ctx
        flops += sum(dense + attn * max(ctx, 0.0) for ctx in context_lengths)
        compute_time = flops / self._peak_compute
        kv_bytes = self._kv_bytes_per_token * float(sum(context_lengths))
        memory_time = (self._weight_bytes + kv_bytes) / self._decode_bandwidth
        return max(compute_time, memory_time) + self._step_overhead
