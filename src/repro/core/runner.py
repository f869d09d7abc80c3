"""Single-request characterization records (paper Section IV-A/IV-B setup).

The paper first characterises agents while serving one request at a time:
an :class:`~repro.api.spec.ExperimentSpec` with a ``single`` arrival process
runs the sampled tasks sequentially through the chosen agent, and
:func:`repro.api.run_experiment` records, for every request, the agent trace
plus the engine-side observations over the request's time window (GPU runtime
breakdown, KV-cache memory, energy) as a :class:`CharacterizationResult`.
The :class:`~repro.api.results.ResultSet` wrapping it derives every metric
from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.agents import AgentRunResult
from repro.core.metrics import GpuRuntimeBreakdown
from repro.llm.energy import PowerState


@dataclass(frozen=True)
class RequestObservation:
    """One request's agent trace plus engine-side measurements."""

    result: AgentRunResult
    energy_wh: float
    energy_joules_by_state: Dict[PowerState, float]
    gpu: GpuRuntimeBreakdown
    kv_average_bytes: float
    kv_max_bytes: float


@dataclass
class CharacterizationResult:
    """The measured requests of a single-request characterization experiment."""

    observations: List[RequestObservation] = field(default_factory=list)
