"""Project datacenter power needs from per-query energy (Tables III-IV).

Measures per-query GPU energy for single-turn chatbot serving and for two
agentic test-time-scaling configurations, then projects the datacenter power
required to serve today's ChatGPT-scale traffic and tomorrow's Google-scale
traffic, comparing against reference power scales.

Run with::

    python examples/datacenter_energy_projection.py [--tasks 5]
"""

from __future__ import annotations

import argparse

from repro.analysis import format_table, table3
from repro.core import (
    CHATGPT_QUERIES_PER_DAY,
    GOOGLE_QUERIES_PER_DAY,
    format_power,
    gigawatt_threshold_energy_wh,
    project_power,
)
from repro.core.datacenter import REFERENCE_POWER_W


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=5)
    parser.add_argument("--models", nargs="+", default=["8b", "70b"])
    args = parser.parse_args()

    measured = table3(models=tuple(args.models), num_tasks=args.tasks)
    print(measured.format())
    print()

    rows = []
    for row in measured.rows():
        workload, model = row["workload"], row["model"]
        for label, traffic in (
            ("ChatGPT today (71.4M q/day)", CHATGPT_QUERIES_PER_DAY),
            ("Google scale (13.7B q/day)", GOOGLE_QUERIES_PER_DAY),
        ):
            projection = project_power(
                f"{workload}-{model}", row["energy_wh_per_query"], traffic
            )
            rows.append(
                {
                    "workload": f"{workload} ({model})",
                    "traffic": label,
                    "power": format_power(projection.power_watts),
                    "daily_energy_gwh": projection.daily_energy_gwh,
                    "x_colossus_150MW": projection.relative_to(REFERENCE_POWER_W["xai_colossus"]),
                }
            )
    print(format_table(rows, "Datacenter-wide power projection"))
    print()
    threshold = gigawatt_threshold_energy_wh()
    print(
        f"Per-query energy above ~{threshold:.0f} Wh makes ChatGPT-scale traffic a "
        ">1 GW load -- agentic test-time scaling approaches or crosses that threshold."
    )


if __name__ == "__main__":
    main()
