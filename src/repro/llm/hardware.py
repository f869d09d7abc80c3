"""GPU and cluster hardware specifications.

The paper's testbed is GCP ``a2-highgpu-1g`` (1x A100-40GB) for the 8B model
and ``a2-highgpu-8g`` (8x A100-40GB, tensor parallel) for the 70B model.  The
specification carries the roofline inputs (peak FLOPs, HBM bandwidth, memory
capacity), the power-state model used for energy accounting, and an hourly
price used for cost accounting.

Beyond the paper's A100-40GB, a small catalog of GPU generations
(:data:`GPU_CATALOG`, extensible via :func:`register_gpu`) lets experiments
mix hardware across replica pools: :class:`HardwareSpec` is the frozen,
serialisable handle specs carry (``gpu=`` names a catalog entry), and
``HardwareSpec.resolve()`` turns it into the :class:`ClusterSpec` the engine
consumes.  Leaving ``hardware=None`` on a spec keeps today's
:func:`cluster_for_model` defaults bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.llm.models import ModelSpec, LLAMA_3_1_70B, LLAMA_3_1_8B


@dataclass(frozen=True)
class GPUSpec:
    """Per-GPU hardware characteristics."""

    name: str
    peak_flops: float            # dense bf16 FLOP/s
    mem_bandwidth: float         # HBM bytes/s
    mem_capacity: float          # bytes
    idle_power_w: float          # power while the engine has no work
    decode_power_w: float        # power during memory-bound decode steps
    prefill_power_w: float       # power during compute-bound prefill steps
    mfu_prefill: float = 0.52    # achieved fraction of peak FLOPs in prefill
    mbu_decode: float = 0.62     # achieved fraction of HBM bandwidth in decode
    cost_per_hour: float = 0.0   # USD per GPU-hour (on-demand, no discounts)


# Catalog prices are GCP us-central1 on-demand, per GPU-hour: the
# accelerator-optimized machine-type hourly price divided by its GPU count
# (a2-highgpu-1g for A100-40GB, a2-ultragpu-1g for A100-80GB, a3-highgpu-8g
# for H100-80GB, g2-standard-4 for L4).  Rooflines are vendor datasheet
# numbers (dense bf16, no sparsity); power states follow the same
# idle/decode/prefill calibration style as the paper's A100-40GB entry.
A100_40GB = GPUSpec(
    name="A100-SXM4-40GB",
    peak_flops=312e12,
    mem_bandwidth=1.555e12,
    mem_capacity=40e9,
    idle_power_w=62.0,
    decode_power_w=272.0,
    prefill_power_w=388.0,
    cost_per_hour=3.67,
)

A100_80GB = GPUSpec(
    name="A100-SXM4-80GB",
    peak_flops=312e12,
    mem_bandwidth=2.039e12,
    mem_capacity=80e9,
    idle_power_w=66.0,
    decode_power_w=285.0,
    prefill_power_w=400.0,
    cost_per_hour=5.07,
)

H100_80GB = GPUSpec(
    name="H100-SXM5-80GB",
    peak_flops=989e12,
    mem_bandwidth=3.35e12,
    mem_capacity=80e9,
    idle_power_w=90.0,
    decode_power_w=480.0,
    prefill_power_w=650.0,
    cost_per_hour=11.06,
)

L4_24GB = GPUSpec(
    name="L4-24GB",
    peak_flops=121e12,
    mem_bandwidth=0.3e12,
    mem_capacity=24e9,
    idle_power_w=20.0,
    decode_power_w=55.0,
    prefill_power_w=70.0,
    cost_per_hour=0.70,
)


# Name -> GPUSpec, keyed by normalized (lowercase) name.  Entries registered
# under aliases point at the same spec instance.
GPU_CATALOG: Dict[str, GPUSpec] = {}


def _normalize_gpu_name(name: str) -> str:
    return name.strip().lower()


def register_gpu(spec: GPUSpec, aliases: Tuple[str, ...] = ()) -> GPUSpec:
    """Add a GPU to the catalog under its name (plus optional aliases)."""
    if not isinstance(spec, GPUSpec):
        raise TypeError(f"expected a GPUSpec, got {type(spec).__name__}")
    for key in (spec.name, *aliases):
        GPU_CATALOG[_normalize_gpu_name(key)] = spec
    return spec


def get_gpu(name: str) -> GPUSpec:
    """Look up a catalog GPU by name or alias (case-insensitive)."""
    key = _normalize_gpu_name(name)
    if key not in GPU_CATALOG:
        raise KeyError(
            f"unknown GPU: {name!r} (known: {available_gpus()})"
        )
    return GPU_CATALOG[key]


def available_gpus() -> Tuple[str, ...]:
    """Canonical names of every distinct GPU in the catalog."""
    seen = []
    for spec in GPU_CATALOG.values():
        if spec.name not in seen:
            seen.append(spec.name)
    return tuple(sorted(seen))


register_gpu(A100_40GB, aliases=("A100-40GB",))
register_gpu(A100_80GB, aliases=("A100-80GB",))
register_gpu(H100_80GB, aliases=("H100-80GB",))
register_gpu(L4_24GB, aliases=("L4",))


# The step-overhead / power / KV calibration below was only ever validated
# for tensor-parallel groups of 1-8 GPUs (the paper's largest testbed is
# 8x A100); reject larger degrees rather than extrapolate silently.
MAX_TENSOR_PARALLEL = 8


@dataclass(frozen=True)
class ClusterSpec:
    """A tensor-parallel group of identical GPUs serving one model replica."""

    gpu: GPUSpec = A100_40GB
    tensor_parallel: int = 1
    # Fraction of GPU memory vLLM may use (its gpu_memory_utilization knob).
    gpu_memory_utilization: float = 0.90
    # Non-weight, non-KV overhead reserved per GPU (activations, CUDA graphs).
    activation_overhead_bytes: float = 2.0e9
    # Fixed per-engine-step overheads (kernel launch, sampling, scheduling);
    # tensor parallelism adds all-reduce latency per step.
    step_overhead_s: float = 0.004
    tp_comm_overhead_s: float = 0.0015
    # Memory-bound decode keeps large TP groups less busy per GPU, which shows
    # up as lower per-GPU power draw (calibrated to the paper's 70B energy).
    tp_power_efficiency: float = 0.62

    def __post_init__(self) -> None:
        if not 1 <= self.tensor_parallel <= MAX_TENSOR_PARALLEL:
            raise ValueError(
                f"tensor_parallel={self.tensor_parallel} is outside the "
                f"calibrated range 1..{MAX_TENSOR_PARALLEL} for {self.gpu.name}"
            )

    @property
    def total_peak_flops(self) -> float:
        return self.gpu.peak_flops * self.tensor_parallel

    @property
    def total_mem_bandwidth(self) -> float:
        return self.gpu.mem_bandwidth * self.tensor_parallel

    @property
    def step_overhead(self) -> float:
        extra = self.tp_comm_overhead_s if self.tensor_parallel > 1 else 0.0
        return self.step_overhead_s + extra

    @property
    def cost_per_hour(self) -> float:
        """USD per replica-hour: per-GPU on-demand price x TP degree."""
        return self.gpu.cost_per_hour * self.tensor_parallel

    def kv_cache_bytes(self, model: ModelSpec) -> float:
        """GPU bytes available for the KV cache after weights and overheads."""
        usable = self.gpu.mem_capacity * self.gpu_memory_utilization * self.tensor_parallel
        reserved = model.weight_bytes + self.activation_overhead_bytes * self.tensor_parallel
        available = usable - reserved
        if available <= 0:
            raise ValueError(
                f"model {model.name} does not fit on {self.tensor_parallel}x {self.gpu.name}"
            )
        return available

    def decode_seconds_per_token(self, model: ModelSpec) -> float:
        """Roofline lower bound on one decode step for ``model`` (seconds).

        Decode is memory-bound: every step streams the full weights through
        HBM at the achieved bandwidth fraction, plus the fixed step overhead.
        Used by cost-aware routing to rank pools by decode speed without
        building an engine.
        """
        stream = model.weight_bytes / (self.gpu.mbu_decode * self.total_mem_bandwidth)
        return stream + self.step_overhead

    def power_w(self, state: str) -> float:
        """Cluster-wide power draw (all GPUs) for an engine power state."""
        gpu = self.gpu
        if state == "idle":
            per_gpu = gpu.idle_power_w
        elif state == "decode":
            per_gpu = gpu.decode_power_w
        elif state == "prefill":
            per_gpu = gpu.prefill_power_w
        elif state == "draft":
            # Speculative draft passes run on the same GPUs at decode-like
            # (memory-bound) intensity; the draft energy premium comes from
            # the extra dwell *time*, not a distinct power level.
            per_gpu = gpu.decode_power_w
        else:
            raise ValueError(f"unknown power state: {state!r}")
        if state != "idle" and self.tensor_parallel > 1:
            active = per_gpu - gpu.idle_power_w
            per_gpu = gpu.idle_power_w + active * self.tp_power_efficiency
        return per_gpu * self.tensor_parallel


@dataclass(frozen=True)
class HardwareSpec:
    """Declarative, serialisable hardware selection for a replica pool.

    ``gpu`` names a :data:`GPU_CATALOG` entry (a :class:`GPUSpec` instance is
    accepted and coerced to its name), so the spec stays a plain string/number
    record that round-trips through ``dataclasses.asdict`` and
    :func:`repro.api.codec.from_dict`.  ``resolve()`` produces the
    :class:`ClusterSpec` the engine consumes.
    """

    gpu: str = "A100-40GB"
    tensor_parallel: int = 1
    gpu_memory_utilization: float = 0.90

    def __post_init__(self) -> None:
        if isinstance(self.gpu, GPUSpec):
            object.__setattr__(self, "gpu", self.gpu.name)
        # Canonicalise aliases so equal hardware compares equal; raises
        # KeyError naming the catalog when the GPU is unknown.
        object.__setattr__(self, "gpu", get_gpu(self.gpu).name)
        if not 1 <= int(self.tensor_parallel) <= MAX_TENSOR_PARALLEL:
            raise ValueError(
                f"tensor_parallel={self.tensor_parallel} is outside the "
                f"calibrated range 1..{MAX_TENSOR_PARALLEL}"
            )
        if not 0.0 < self.gpu_memory_utilization <= 1.0:
            raise ValueError(
                "gpu_memory_utilization must be in (0, 1], got "
                f"{self.gpu_memory_utilization}"
            )

    def resolve(self) -> ClusterSpec:
        """The concrete cluster this hardware selection describes."""
        return ClusterSpec(
            gpu=get_gpu(self.gpu),
            tensor_parallel=self.tensor_parallel,
            gpu_memory_utilization=self.gpu_memory_utilization,
        )


def cluster_for_model(model: ModelSpec) -> ClusterSpec:
    """The paper's default cluster for a given backend model."""
    if model.name == LLAMA_3_1_8B.name:
        return ClusterSpec(gpu=A100_40GB, tensor_parallel=1)
    if model.name == LLAMA_3_1_70B.name:
        return ClusterSpec(gpu=A100_40GB, tensor_parallel=8)
    # Default: smallest calibrated TP degree that fits the weights plus some
    # KV headroom.  Degrees beyond MAX_TENSOR_PARALLEL were never calibrated
    # (power_w / kv_cache_bytes assume 1-8 GPUs), so they are not tried.
    for tp in (1, 2, 4, 8):
        cluster = ClusterSpec(gpu=A100_40GB, tensor_parallel=tp)
        try:
            cluster.kv_cache_bytes(model)
        except ValueError:
            continue
        return cluster
    raise ValueError(
        f"no tensor-parallel degree up to {MAX_TENSOR_PARALLEL} fits model "
        f"{model.name} on {A100_40GB.name}; pick a larger-memory GPU from "
        f"the catalog ({', '.join(available_gpus())}) via HardwareSpec"
    )
