"""Datacenter-wide power and energy projection (paper Section VI, Table IV).

Given per-query GPU energy from the serving simulator, these helpers perform
the paper's arithmetic: daily energy at a given traffic level, the sustained
power draw needed to serve it, and comparisons against reference power scales
(hyperscale datacenters, announced AI facilities, the US grid).
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_DAY = 86_400.0
HOURS_PER_DAY = 24.0

#: Traffic scenarios used by the paper.
CHATGPT_QUERIES_PER_DAY = 71.4e6       # conservative DAU estimate, 1 query/user
GOOGLE_QUERIES_PER_DAY = 13.7e9        # Google search volume

#: Reference power scales for perspective (watts).
REFERENCE_POWER_W = {
    "hyperscale_datacenter_low": 10e6,
    "hyperscale_datacenter_high": 100e6,
    "xai_colossus": 150e6,
    "meta_hyperion": 5e9,
    "us_grid_average_load": 476.9e9,
    "seattle_daily_energy_gwh": 24.8,   # GWh/day, used for the energy comparison
}


@dataclass(frozen=True)
class PowerProjection:
    """Sustained power needed to serve a traffic level with a given per-query energy."""

    label: str
    energy_wh_per_query: float
    queries_per_day: float

    @property
    def daily_energy_wh(self) -> float:
        return self.energy_wh_per_query * self.queries_per_day

    @property
    def daily_energy_gwh(self) -> float:
        return self.daily_energy_wh / 1e9

    @property
    def power_watts(self) -> float:
        """P = (Wh/query) * (queries/day) / (24 h)."""
        return self.daily_energy_wh / HOURS_PER_DAY

    @property
    def power_megawatts(self) -> float:
        return self.power_watts / 1e6

    @property
    def power_gigawatts(self) -> float:
        return self.power_watts / 1e9

    def relative_to(self, reference_watts: float) -> float:
        if reference_watts <= 0:
            raise ValueError("reference power must be positive")
        return self.power_watts / reference_watts


def project_power(
    label: str, energy_wh_per_query: float, queries_per_day: float
) -> PowerProjection:
    if energy_wh_per_query < 0 or queries_per_day < 0:
        raise ValueError("energy and traffic must be non-negative")
    return PowerProjection(
        label=label,
        energy_wh_per_query=energy_wh_per_query,
        queries_per_day=queries_per_day,
    )


def gigawatt_threshold_energy_wh(queries_per_day: float = CHATGPT_QUERIES_PER_DAY) -> float:
    """Per-query energy at which a traffic level crosses 1 GW of sustained power.

    The paper observes that once per-query energy exceeds roughly 100 Wh,
    even tens of millions of queries per day become a gigawatt-scale load.
    """
    if queries_per_day <= 0:
        raise ValueError("queries_per_day must be positive")
    return 1e9 * HOURS_PER_DAY / queries_per_day


def format_power(watts: float) -> str:
    """Human-readable power (kW / MW / GW) used by the Table IV printer."""
    if watts >= 1e9:
        return f"{watts / 1e9:.1f} GW"
    if watts >= 1e6:
        return f"{watts / 1e6:.1f} MW"
    if watts >= 1e3:
        return f"{watts / 1e3:.1f} kW"
    return f"{watts:.1f} W"
