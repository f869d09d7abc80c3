"""Simulator-core speed lane: events/sec, fast-forward speedup, 1k concurrency.

Two budgets ride in ``BENCH_baseline.json``:

* the Table IV characterization study at exact (per-token) decode fidelity,
  timed on the engine's one decode path, which fast-forwards decode runs --
  an untimed reference run under the per-token seam (``tests/per_token.py``)
  checks the results are bit-identical and reports the speedup and
  simulated-events/sec; and
* the tenant-fairness study rerun at 1k+ concurrent requests, where the
  contention is genuine KV-cache pressure (the batch cap is set far above
  the request count so it cannot be the binding constraint).
"""

from __future__ import annotations

import time

from bench_utils import scaled

from repro.analysis import table3, table4
from repro.analysis.fairness import fairness_study
from repro.sim import core as sim_core

from tests.per_token import per_token_decode

# Per-token events per fast-forwarded event in the Table IV study: 8.12 at
# REPRO_BENCH_SCALE=1 and 7.82 at 4.  Event counts are a pure function of
# the study, so this floor fails on lost fast-forwarding, never on host
# timing noise.
EVENT_RATIO_FLOOR = 7.5


def count_events(monkeypatch):
    """Route every Environment's step through one shared counter."""
    counter = {"events": 0}
    original_step = sim_core.Environment.step

    def counting_step(self):
        counter["events"] += 1
        return original_step(self)

    monkeypatch.setattr(sim_core.Environment, "step", counting_step)
    return counter


def peak_in_flight(serving) -> int:
    """Maximum concurrently in-flight requests over one serving run."""
    events = []
    for run in serving.results:
        events.append((run.start_time, 1))
        events.append((run.end_time, -1))
    events.sort()
    peak = current = 0
    for _, delta in events:
        current += delta
        if current > peak:
            peak = current
    return peak


def test_table4_exact_study_wall_clock(run_once, monkeypatch):
    """Wall-clock budget for the Table IV study at exact decode fidelity.

    The timed run (the figure committed to ``BENCH_baseline.json``) uses the
    engine's fast-forwarded decode.  The untimed rerun under the per-token
    seam proves fast-forwarding is a replay, not an approximation: both
    tables compare equal field for field.
    """
    tasks = scaled(8)
    counter = count_events(monkeypatch)

    def build():
        t3 = table3(models=("8b", "70b"), num_tasks=tasks, seed=0)
        return t3, table4(table3_result=t3)

    started = time.perf_counter()
    fast_t3, fast_t4 = run_once(build)
    fast_elapsed = time.perf_counter() - started
    fast_events = counter["events"]

    counter["events"] = 0
    started = time.perf_counter()
    with per_token_decode():
        ref_t3 = table3(models=("8b", "70b"), num_tasks=tasks, seed=0)
        ref_t4 = table4(table3_result=ref_t3)
    ref_elapsed = time.perf_counter() - started
    ref_events = counter["events"]

    print()
    print(f"fast-forward on:  {fast_elapsed:6.2f} s  {fast_events:8d} events  "
          f"{fast_events / fast_elapsed:10,.0f} events/s")
    print(f"per-token:        {ref_elapsed:6.2f} s  {ref_events:8d} events  "
          f"{ref_events / ref_elapsed:10,.0f} events/s")
    print(f"speedup: {ref_elapsed / fast_elapsed:.2f}x wall-clock, "
          f"{ref_events / fast_events:.2f}x fewer events")

    # Fast-forwarding replays the per-token path bit for bit.
    assert fast_t3 == ref_t3
    assert fast_t4 == ref_t4
    # And it genuinely collapses decode runs into fewer simulated events.
    assert ref_events >= EVENT_RATIO_FLOOR * fast_events


def test_fairness_at_thousand_concurrent(run_once):
    """Fairness study rerun with 1k+ requests genuinely in flight at once.

    ``max_num_seqs`` is set far above the request count so the batch cap
    cannot be what makes requests contend -- the contention is KV-cache
    pressure on the default cluster, evidenced by preemptions.
    """
    num_requests = 1100
    study = run_once(
        fairness_study,
        qps_values=(64.0,),
        num_requests=num_requests,
        schedulers=("fcfs", "vtc"),
        skews=(("heavy", 1.6),),
        max_num_seqs=4096,
        seed=0,
    )

    print()
    print(study.format())

    assert study.result.points, "fairness grid came back empty"
    for point in study.result.points:
        serving = point.outcome.serving
        peak = peak_in_flight(serving)
        print(f"{point.labels}: peak in-flight {peak}, "
              f"preemptions {serving.preemptions}")
        assert point.outcome.num_completed == num_requests
        # 1k+ requests genuinely concurrent...
        assert peak >= 1000
        # ...contending on KV memory, not on the (non-binding) batch cap.
        assert serving.preemptions > 0
