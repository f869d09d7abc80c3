"""Simulator-core speed lane: events/sec, fast-forward speedup, 1k concurrency.

Two budgets ride in ``BENCH_baseline.json``:

* the Table IV characterization study at exact (per-token) decode fidelity,
  timed with the production decode fast-forward on -- an untimed reference
  run with the flag off checks the results are bit-identical and reports
  the speedup and simulated-events/sec; and
* the tenant-fairness study rerun at 1k+ concurrent requests, where the
  contention is genuine KV-cache pressure (the batch cap is set far above
  the request count so it cannot be the binding constraint).
"""

from __future__ import annotations

import dataclasses
import time

from bench_utils import scaled

from repro.analysis import table3, table4
from repro.analysis.fairness import fairness_study
from repro.api.builder import SystemBuilder
from repro.sim import core as sim_core


def count_events(monkeypatch):
    """Route every Environment's step through one shared counter."""
    counter = {"events": 0}
    original_step = sim_core.Environment.step

    def counting_step(self):
        counter["events"] += 1
        return original_step(self)

    monkeypatch.setattr(sim_core.Environment, "step", counting_step)
    return counter


def force_fast_forward(monkeypatch, enabled: bool) -> None:
    """Pin ``decode_fast_forward`` for every engine the builder constructs."""
    original = SystemBuilder.engine_config

    def forced(self, pool):
        return dataclasses.replace(original(self, pool), decode_fast_forward=enabled)

    monkeypatch.setattr(SystemBuilder, "engine_config", forced)


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
    production decode fast-forward.  The untimed reference rerun with the
    flag off proves fast-forwarding is a replay, not an approximation: both
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

    force_fast_forward(monkeypatch, False)
    counter["events"] = 0
    started = time.perf_counter()
    ref_t3 = table3(models=("8b", "70b"), num_tasks=tasks, seed=0)
    ref_t4 = table4(table3_result=ref_t3)
    ref_elapsed = time.perf_counter() - started
    ref_events = counter["events"]

    print()
    print(f"fast-forward on:  {fast_elapsed:6.2f} s  {fast_events:8d} events  "
          f"{fast_events / fast_elapsed:10,.0f} events/s")
    print(f"fast-forward off: {ref_elapsed:6.2f} s  {ref_events:8d} events  "
          f"{ref_events / ref_elapsed:10,.0f} events/s")
    print(f"speedup: {ref_elapsed / fast_elapsed:.2f}x wall-clock, "
          f"{ref_events / fast_events:.2f}x fewer events")

    # Fast-forwarding replays the per-token path bit for bit.
    assert fast_t3 == ref_t3
    assert fast_t4 == ref_t4
    # And it genuinely collapses decode runs into fewer simulated events.
    assert fast_events < ref_events
    # Conservative wall-clock floor; measured ~2x on a quiet machine, but
    # single-run timings on shared CI hardware are noisy.
    assert ref_elapsed / fast_elapsed > 1.3


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
