"""Figure 11 -- p95 latency vs offered QPS, with and without prefix caching."""

from bench_utils import scaled

from repro.analysis import figure11


def test_fig11_tail_latency_vs_qps(run_once):
    result = run_once(
        figure11,
        qps_grid={
            "sharegpt": (1.0, 2.0, 4.0, 6.0),
            "hotpotqa": (0.25, 0.5, 1.0, 2.0),
            "webshop": (0.25, 0.5, 1.0, 1.5),
        },
        num_requests=scaled(30, cap=120),
        seed=0,
    )
    print()
    print(result.format())
    peaks = result.peak_throughputs()
    print("peak throughput (QPS):", {f"{k[0]}{'+' if k[1] else '-'}pc": round(v, 2) for k, v in peaks.items()})

    # Single-turn chatbot serving sustains far higher QPS than agent serving
    # (paper: 6.4 vs 2.6 / 1.2 QPS).
    assert peaks[("sharegpt", True)] > peaks[("hotpotqa", True)]
    assert peaks[("sharegpt", True)] > peaks[("webshop", True)]

    # Prefix caching barely moves the chatbot workload but helps agents
    # (paper: 1.03x vs 5.62x peak-throughput improvement).
    sharegpt_speedup = result.caching_speedup("sharegpt")
    agent_speedup = max(result.caching_speedup("hotpotqa"), result.caching_speedup("webshop"))
    assert 0.8 <= sharegpt_speedup <= 1.4
    assert agent_speedup >= sharegpt_speedup

    # Tail latency rises with offered load for every workload.
    for key in result.curves:
        ordered = sorted(result.outcomes(key), key=lambda r: r.serving.offered_qps)
        assert ordered[-1].p95_latency >= ordered[0].p95_latency * 0.8
