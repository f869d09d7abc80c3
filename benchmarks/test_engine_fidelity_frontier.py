"""Engine fidelity -- chunked prefill and speculative decoding frontiers.

Two lanes: a mini engine-fidelity study asserting the headline (chunked
prefill zeroes out prefill head-of-line blocking and improves chat p95 on
the agent-heavy mixture at equal replica-seconds, while speculation trades
draft energy for decode latency), and an off-switch identity check pinning
that a spec with both features explicitly off reproduces the default
engine's latencies exactly -- the fidelity knobs must cost nothing when
unused.
"""

from repro.analysis import engine_fidelity_study
from repro.api import ArrivalSpec, ExperimentSpec, run_experiment

from bench_utils import scaled


def test_chunking_and_speculation_frontier(run_once):
    study = run_once(
        engine_fidelity_study,
        num_requests=scaled(32),
        chunk_values=(None, 256),
    )
    print()
    print(study.format())
    print(study.format_frontier())

    advantage = study.chunking_advantage("256")
    trade = study.speculation_tradeoff()
    print(
        f"chunked prefill: {advantage['chat_p95_s']:+.2f}s chat p95, "
        f"{advantage['hol_s']:+.2f}s head-of-line blocking; "
        f"speculation: {trade['chat_p95_s']:+.2f}s chat p95 for "
        f"{trade['draft_j']:,.0f} J of draft compute"
    )

    # The headline: chunking removes head-of-line blocking entirely and
    # improves chat tail latency at equal replica-seconds.
    assert study.metric("prefill_hol_block_s", chunk="off", spec="off") > 0
    assert study.metric("prefill_hol_block_s", chunk="256", spec="off") == 0.0
    assert advantage["chat_p95_s"] < 0

    # Speculation is an energy-for-latency trade: faster chat tails, paid
    # for in draft joules the non-speculative arm never books.
    assert trade["chat_p95_s"] < 0
    assert trade["draft_j"] > 0
    assert trade["accepted"] > 1.0


def test_fidelity_off_switch_is_identity(run_once):
    arrival = ArrivalSpec(
        process="poisson", qps=4.0, num_requests=scaled(16), task_pool_size=8
    )
    base = ExperimentSpec(
        agent="chatbot", workload="sharegpt", arrival=arrival, max_num_seqs=4
    )
    explicit_off = ExperimentSpec(
        agent="chatbot",
        workload="sharegpt",
        arrival=arrival,
        max_num_seqs=4,
        prefill_chunk_tokens=None,
        speculative=None,
    )

    def both():
        return run_experiment(base), run_experiment(explicit_off)

    default_run, off_run = run_once(both)
    print()
    print(f"default:      {default_run.summary()}")
    print(f"explicit off: {off_run.summary()}")

    # Off is off: explicit None fields change nothing, bit for bit, and
    # neither summary grows any fidelity key.
    assert off_run.latencies == default_run.latencies
    assert off_run.summary() == default_run.summary()
    for key in ("prefill_hol_block_s", "mean_accepted_per_step", "draft_energy_j"):
        assert key not in default_run.summary()
