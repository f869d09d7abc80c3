"""Capacity planning for an agent serving cluster (miniature of Figs. 11-12).

Sweeps offered load for a chatbot workload and a ReAct agent workload, with
and without prefix caching -- and across replica counts -- and reports
sustainable throughput, tail latency, KV-cache memory pressure, and energy
per query -- the quantities an operator would use to size a serving
deployment.  Each load sweep is a one-axis :class:`repro.api.StudySpec`
over ``qps``, and :func:`repro.analysis.peak_throughput` reads the knee off
its serving outcomes.

Run with::

    python examples/serving_capacity_planning.py [--requests 40] [--replicas 1 4]
"""

from __future__ import annotations

import argparse

from repro.agents import AgentConfig
from repro.analysis import format_table, peak_throughput
from repro.api import ArrivalSpec, ExperimentSpec, StudyAxis, StudySpec, run_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=40, help="requests per load point")
    parser.add_argument("--replicas", type=int, nargs="+", default=[1], help="replica counts to compare")
    parser.add_argument("--router", default="least-loaded", help="round-robin | least-loaded | prefix-affinity")
    args = parser.parse_args()

    scenarios = {
        "chatbot (ShareGPT)": ("chatbot", "sharegpt", (1.0, 2.0, 4.0, 6.0)),
        "ReAct (HotpotQA)": ("react", "hotpotqa", (0.25, 0.5, 1.0, 2.0)),
    }

    rows = []
    for label, (agent, benchmark, qps_values) in scenarios.items():
        for replicas in args.replicas:
            for caching in (True, False):
                spec = ExperimentSpec(
                    agent=agent,
                    workload=benchmark,
                    replicas=replicas,
                    router=args.router,
                    enable_prefix_caching=caching,
                    agent_config=AgentConfig(max_iterations=7),
                    arrival=ArrivalSpec(process="single", num_requests=args.requests),
                )
                study = run_study(
                    StudySpec(base=spec, axes=(StudyAxis(name="qps", values=qps_values),))
                )
                outcomes = [point.outcome for point in study.points]
                busiest = max(outcomes, key=lambda r: r.serving.offered_qps)
                rows.append(
                    {
                        "workload": label,
                        "replicas": replicas,
                        "prefix_caching": caching,
                        "peak_qps": peak_throughput(outcomes),
                        "p95_at_peak_s": busiest.p95_latency,
                        "kv_avg_gb": busiest.serving.kv_average_bytes / 1e9,
                        "kv_max_gb": busiest.serving.kv_max_bytes / 1e9,
                        "energy_wh_per_query": busiest.energy_wh_per_query,
                        "preemptions": busiest.serving.preemptions,
                    }
                )

    print(format_table(rows, "Serving capacity planning (Llama-3.1-8B, A100-40GB replicas)"))
    print()
    print("Observations to look for (mirroring the paper):")
    print(" * chatbot serving sustains several times the QPS of agent serving,")
    print(" * prefix caching matters much more for the agent workload,")
    print(" * agent serving needs more KV-cache memory per sustained query.")


if __name__ == "__main__":
    main()
