"""The decode roofline's O(1) certificate is bit-exact.

:meth:`PerformanceModel.decode_run_step_times` prices a run of decode steps
from the integer sum of the batch's context lengths, and evaluates a step's
per-sequence FLOP sum only when a certified upper bound on it reaches the
memory term.
The roofline it replaced, which always evaluated the per-sequence sum, is
kept here as the reference (:func:`reference_decode_step_time`): every
float must be ``==`` to it, on memory-bound and compute-bound batches and on
constructed near-ties where the two terms are a few ulps apart.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import PerformanceModel
from repro.llm.hardware import (
    A100_80GB,
    H100_80GB,
    L4_24GB,
    ClusterSpec,
    cluster_for_model,
)
from repro.llm.models import LLAMA_3_1_70B, LLAMA_3_1_8B


def reference_decode_step_time(perf: PerformanceModel, context_lengths: Sequence[int]) -> float:
    """The per-sequence decode roofline the certificate must reproduce."""
    batch_size = len(context_lengths)
    if batch_size == 0:
        return 0.0
    if batch_size == 1:
        ctx = context_lengths[0]
        kv_bytes = perf._kv_bytes_per_token * float(ctx)
        memory_time = (perf._weight_bytes + kv_bytes) / perf._decode_bandwidth
        flops = perf._flops_dense + perf._flops_attn_per_ctx * max(ctx, 0.0)
        compute_time = flops / perf._peak_compute
        return max(memory_time, compute_time) + perf._step_overhead
    kv_bytes = perf._kv_bytes_per_token * float(sum(context_lengths))
    memory_time = (perf._weight_bytes + kv_bytes) / perf._decode_bandwidth
    dense = perf._flops_dense
    attn = perf._flops_attn_per_ctx
    flops = sum(dense + attn * max(ctx, 0.0) for ctx in context_lengths)
    compute_time = flops / perf._peak_compute
    return max(memory_time, compute_time) + perf._step_overhead


def terms(perf: PerformanceModel, context_lengths: Sequence[int]):
    """The reference's (memory, compute) terms, for classifying a batch."""
    memory = (
        perf._weight_bytes + perf._kv_bytes_per_token * float(sum(context_lengths))
    ) / perf._decode_bandwidth
    flops = sum(
        perf._flops_dense + perf._flops_attn_per_ctx * max(ctx, 0.0)
        for ctx in context_lengths
    )
    return memory, flops / perf._peak_compute


PERF_MODELS = [
    PerformanceModel(model=model, cluster=cluster)
    for model, cluster in (
        (LLAMA_3_1_8B, cluster_for_model(LLAMA_3_1_8B)),
        (LLAMA_3_1_70B, cluster_for_model(LLAMA_3_1_70B)),
        (LLAMA_3_1_8B, ClusterSpec(gpu=L4_24GB)),
        (LLAMA_3_1_70B, ClusterSpec(gpu=L4_24GB, tensor_parallel=8)),
        (LLAMA_3_1_70B, ClusterSpec(gpu=H100_80GB, tensor_parallel=4)),
        (LLAMA_3_1_8B, ClusterSpec(gpu=A100_80GB, tensor_parallel=2)),
        # The catalog models' FLOP terms are integers, whose float sums are
        # exact; a third of the 8B's parameters makes every term round.
        (
            dataclasses.replace(LLAMA_3_1_8B, n_params=LLAMA_3_1_8B.n_params / 3),
            ClusterSpec(gpu=L4_24GB),
        ),
    )
]


def planned_durations(perf: PerformanceModel, lengths: List[int], steps: int) -> List[float]:
    """Each virtual step's duration as a decode run's planner prices it."""
    return perf.decode_run_step_times(lengths, steps)


def exact_durations(perf: PerformanceModel, lengths: List[int], steps: int) -> List[float]:
    """The reference over the explicit lengths ``ctx + step`` of each step."""
    return [
        reference_decode_step_time(perf, [ctx + step for ctx in lengths])
        for step in range(steps)
    ]


def tie_perf(perf: PerformanceModel, lengths: List[int], ulps: int) -> PerformanceModel:
    """``perf`` on a GPU whose peak FLOP/s puts compute ``ulps`` off memory.

    Solves the peak at which the reference's compute term equals its memory
    term for ``lengths``, then steps the peak ``ulps`` representable floats
    away from it.
    """
    memory, compute = terms(perf, lengths)
    gpu = perf.cluster.gpu
    peak = gpu.peak_flops * compute / memory
    for _ in range(abs(ulps)):
        peak = math.nextafter(peak, math.inf if ulps > 0 else 0.0)
    cluster = dataclasses.replace(perf.cluster, gpu=dataclasses.replace(gpu, peak_flops=peak))
    return PerformanceModel(model=perf.model, cluster=cluster)


class TestCertificate:
    @given(
        perf=st.sampled_from(PERF_MODELS),
        batch=st.integers(1, 4000),
        max_context=st.sampled_from([0, 16, 256, 4096, 32768, 131072]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_run_steps_equal_the_per_sequence_roofline(
        self, perf, batch, max_context, seed, steps
    ):
        rng = random.Random(seed)
        lengths = [rng.randint(0, max_context) for _ in range(batch)]
        assert planned_durations(perf, lengths, steps) == exact_durations(
            perf, lengths, steps
        )
        for step in range(steps):
            grown = [ctx + step for ctx in lengths]
            assert perf.decode_step_time(grown) == reference_decode_step_time(perf, grown)

    def test_compute_bound_batches_take_the_exact_sum(self):
        # 70B on eight L4s with a few thousand short contexts: the FLOP term
        # binds, so the bound cannot certify and the per-sequence sum runs.
        perf = PERF_MODELS[3]
        for batch, context in ((2000, 8), (3000, 200), (1, 0)):
            lengths = [context + (index % 7) for index in range(batch)]
            memory, compute = terms(perf, lengths)
            if batch > 1:
                assert compute > memory
            assert planned_durations(perf, lengths, 4) == exact_durations(perf, lengths, 4)

    def test_near_ties_are_exact(self):
        # The certificate is only safe if it never returns the memory term
        # while the exact compute term is larger, however slightly.
        sides = set()
        for perf in PERF_MODELS:
            for batch, context in ((1, 300), (64, 900), (700, 37), (2500, 5)):
                lengths = [context + (index * 13) % 29 for index in range(batch)]
                for ulps in range(-6, 7):
                    tied = tie_perf(perf, lengths, ulps)
                    memory, compute = terms(tied, lengths)
                    sides.add((compute > memory) - (compute < memory))
                    assert tied.decode_step_time(lengths) == reference_decode_step_time(
                        tied, lengths
                    )
                    assert planned_durations(tied, lengths, 3) == exact_durations(
                        tied, lengths, 3
                    )
        assert sides == {-1, 0, 1}
