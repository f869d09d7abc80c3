"""Table IV -- datacenter-wide power demand under current and future traffic."""

from bench_utils import scaled

from repro.analysis import table3, table4
from repro.core import CHATGPT_QUERIES_PER_DAY, GOOGLE_QUERIES_PER_DAY, format_power


def test_table4_datacenter_power_projection(run_once):
    def build():
        t3 = table3(models=("8b", "70b"), num_tasks=scaled(4), seed=0)
        return t3, table4(table3_result=t3)

    table3_result, result = run_once(build)
    print()
    print(table3_result.format())
    print(result.format())

    chatgpt = CHATGPT_QUERIES_PER_DAY
    google = GOOGLE_QUERIES_PER_DAY

    sharegpt_8b = result.power_for("sharegpt-8b", chatgpt)
    sharegpt_70b = result.power_for("sharegpt-70b", chatgpt)
    reflexion_70b_today = result.power_for("reflexion-70b", chatgpt)
    reflexion_70b_future = result.power_for("reflexion-70b", google)
    lats_8b_today = result.power_for("lats-8b", chatgpt)

    print("ShareGPT-70B @ ChatGPT traffic:", format_power(sharegpt_70b.power_watts))
    print("Reflexion-70B @ ChatGPT traffic:", format_power(reflexion_70b_today.power_watts))
    print("Reflexion-70B @ Google traffic:", format_power(reflexion_70b_future.power_watts))

    # Single-turn serving at today's traffic fits the tens-of-MW datacenter
    # envelope (paper: 1.0 MW for 8B, 7.6 MW for 70B).
    assert sharegpt_8b.power_megawatts < 20
    assert sharegpt_70b.power_megawatts < 100

    # Agentic serving at the same traffic is orders of magnitude above the
    # single-turn baseline and scales toward GW levels at search-engine
    # traffic (paper: ~200 GW for Reflexion-70B at 13.7B queries/day).
    assert reflexion_70b_today.power_watts > 10 * sharegpt_70b.power_watts
    assert lats_8b_today.power_watts > 3 * sharegpt_8b.power_watts
    assert reflexion_70b_future.power_gigawatts > 1.0
    # Power scales with traffic alone: both projections carry the same
    # per-query energy.  (The ratio of the two powers equals google / chatgpt
    # only up to float rounding, so the check is on its parts.)
    assert (
        reflexion_70b_future.energy_wh_per_query
        == reflexion_70b_today.energy_wh_per_query
    )
    assert reflexion_70b_today.queries_per_day == chatgpt
    assert reflexion_70b_future.queries_per_day == google
