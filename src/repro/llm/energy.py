"""GPU energy accounting.

The simulator knows exactly how long the cluster spends in each power state
(idle, prefill, decode), so energy is a direct integral of state power over
state dwell time -- the simulated analogue of the paper's DCGM power
measurements.  Energy is tracked both engine-wide and per observation window
so per-query energy can be attributed in single-request characterization runs
and amortised over completed queries in serving runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add
from typing import Dict

from repro.llm.hardware import ClusterSpec

JOULES_PER_WH = 3600.0


class PowerState(str, Enum):
    """Engine power states distinguished by the energy model."""

    IDLE = "idle"
    PREFILL = "prefill"
    DECODE = "decode"
    # Draft-model forward passes of speculative decoding: extra compute the
    # non-speculative engine never pays, metered separately so experiments
    # can report the draft energy bill (``draft_energy_j``) on its own.
    DRAFT = "draft"


@dataclass
class EnergyMeter:
    """Integrates cluster power over simulated time, split by power state."""

    cluster: ClusterSpec
    joules_by_state: Dict[PowerState, float] = field(
        default_factory=lambda: {state: 0.0 for state in PowerState}
    )
    seconds_by_state: Dict[PowerState, float] = field(
        default_factory=lambda: {state: 0.0 for state in PowerState}
    )

    def record(self, state: PowerState, duration_s: float) -> float:
        """Account ``duration_s`` seconds spent in ``state``; returns joules."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        joules = self.cluster.power_w(state.value) * duration_s
        self.joules_by_state[state] += joules
        self.seconds_by_state[state] += duration_s
        return joules

    def record_series(self, state: PowerState, durations_s: "list[float]") -> "list[float]":
        """Account a run of consecutive dwell times in one state.

        Performs the same per-duration float accumulation as calling
        :meth:`record` once per entry (so totals are bit-identical), but
        resolves the state power and dict slots once.  Used by the engine's
        decode fast-forward replay, which books one entry per virtual token.
        """
        if durations_s and min(durations_s) < 0:
            raise ValueError("duration must be non-negative")
        power = self.cluster.power_w(state.value)
        series = [power * duration_s for duration_s in durations_s]
        self.joules_by_state[state] = reduce(add, series, self.joules_by_state[state])
        self.seconds_by_state[state] = reduce(add, durations_s, self.seconds_by_state[state])
        return series

    @property
    def total_joules(self) -> float:
        return sum(self.joules_by_state.values())

    @property
    def total_wh(self) -> float:
        return self.total_joules / JOULES_PER_WH

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_state.values())

    @property
    def average_power_w(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return self.total_joules / self.total_seconds

    def snapshot(self) -> "EnergySnapshot":
        """Point-in-time copy used to compute energy over a window."""
        return EnergySnapshot(
            joules_by_state=dict(self.joules_by_state),
            seconds_by_state=dict(self.seconds_by_state),
        )

    def since(self, snapshot: "EnergySnapshot") -> "EnergyWindow":
        """Energy and dwell times accumulated since ``snapshot``."""
        joules = {
            state: self.joules_by_state[state] - snapshot.joules_by_state.get(state, 0.0)
            for state in PowerState
        }
        seconds = {
            state: self.seconds_by_state[state] - snapshot.seconds_by_state.get(state, 0.0)
            for state in PowerState
        }
        return EnergyWindow(joules_by_state=joules, seconds_by_state=seconds)


@dataclass(frozen=True)
class EnergySnapshot:
    joules_by_state: Dict[PowerState, float]
    seconds_by_state: Dict[PowerState, float]


@dataclass(frozen=True)
class EnergyWindow:
    """Energy accumulated between two snapshots."""

    joules_by_state: Dict[PowerState, float]
    seconds_by_state: Dict[PowerState, float]

    @property
    def total_joules(self) -> float:
        return sum(self.joules_by_state.values())

    @property
    def total_wh(self) -> float:
        return self.total_joules / JOULES_PER_WH

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_state.values())

    @property
    def average_power_w(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return self.total_joules / self.total_seconds
