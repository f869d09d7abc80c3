"""Simulator benchmark: named workloads through ``repro.api``, host-side metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet16 --seed 1 --seconds 20 --trace 0

One run is one process.  ``--trace 0`` times the set-up (fresh interpreters
importing ``repro`` and constructing the workload's specs, plus
``SystemBuilder.build``), then repeats passes over the workload's
experiments for ``--seconds`` and reports the end-to-end metrics: per
experiment the median over passes, summed over experiments.  ``--trace 1``
makes one untraced pass, which also counts allocator ops and token
materialisation, and one pass under ``cProfile``, and reports the per-layer
table instead.  Every pass is checked: conservation laws hold, and the
deterministic counters and a digest of the simulated outputs repeat exactly
across the passes of the run.  The last line of standard output is one JSON
object; everything above it is for people.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh-interpreter set-up timings per run (their median is reported).
SETUP_SAMPLES = 3
#: Untraced passes a ``--trace 0`` run makes, however short ``--seconds`` is.
MIN_PASSES = 2

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "sim_tokens_per_s": "tok/s",
    "peak_rss_mib": "MiB",
}

COUNTER_UNITS = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "engine.steps": "count",
    "engine.steps_per_event": "ratio",
    "engine.generated_tokens": "tok",
    "engine.prefill_tokens": "tok",
    "scheduler.preemptions": "count",
    "scheduler.sim_mean_queue_s": "s",
    "kv.allocator_ops": "count",
    "kv.prefix_hit_rate": "ratio",
    "kv.peak_utilisation": "ratio",
    "tokenizer.synthetic_tokens_calls": "count",
    "tokenizer.materialised_tokens": "tok",
    "router.selects": "count",
    "router.affinity_invalidations": "count",
    "control.offers": "count",
    "control.rejected": "count",
    "control.scaling_events": "count",
    "loadgen.arrivals": "count",
    "api.build_s": "s",
    "reporting.summary_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_x": "x",
}

# Runs in a fresh interpreter: import repro and construct the workload's specs.
SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench.workloads import WORKLOADS
next(iter(WORKLOADS[sys.argv[2]](int(sys.argv[3]), 1.0, [])))
print(time.perf_counter() - started)
"""


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    from perfbench.layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTER_UNITS)
    return units


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload size factor (tests use a tiny one)"
    )
    return parser.parse_args(argv)


def child_setup_s(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import repro and build the specs."""
    completed = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(ROOT), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def traced_pass(factory, args):
    """One pass under ``cProfile``, with its layer attribution attached."""
    from perfbench.layers import Attribution
    from perfbench.measure import profiled_calls, run_pass

    profiler = cProfile.Profile()
    outcome = run_pass(factory, args.seed, args.scale, profiler)
    profiler.create_stats()
    outcome.attribution = Attribution(profiler.stats, str(ROOT / "src" / "repro"))
    outcome.profiled_calls = profiled_calls(profiler.stats)
    return outcome


def untraced_passes(factory, args) -> list:
    """Passes until the next one would end after ``--seconds``."""
    from perfbench.measure import run_pass

    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(factory, args.seed, args.scale))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return passes


def median_total(passes, attribute: str) -> float:
    """Per experiment the median over passes, summed over the experiments."""
    columns = zip(*(getattr(outcome, attribute) for outcome in passes))
    return sum(statistics.median(column) for column in columns)


def check_repeats(passes) -> list:
    """Output-check problems, plus passes whose outputs differ from the first."""
    reference = passes[0]
    problems = []
    for number, outcome in enumerate(passes):
        problems.extend(f"pass {number}: {problem}" for problem in outcome.problems)
        if outcome.digest != reference.digest:
            problems.append(f"pass {number}: simulated-output digest changed")
        changed = [
            name
            for name, value in reference.counters.items()
            if outcome.counters.get(name) != value
        ]
        if changed:
            problems.append(f"pass {number}: counters changed: {', '.join(changed)}")
    return problems


def layer_metrics(untraced, traced, calls) -> tuple:
    """The per-layer table of one traced run, plus any repeat problems."""
    from perfbench.layers import LAYERS

    problems = []
    attribution = traced.attribution
    wall = sum(untraced.wall_s)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = attribution.self_s[layer]
        metrics[f"{layer}.calls"] = attribution.calls[layer]
    metrics.update(untraced.counters)
    metrics.update(calls)
    # The profiler's call counts must agree with the counting wrappers'.
    for name, value in traced.profiled_calls.items():
        if value != calls[name]:
            problems.append(f"traced {name} {value} != counted {calls[name]}")
    metrics["sim.host_us_per_event"] = wall / untraced.counters["sim.events"] * 1e6
    metrics["api.build_s"] = untraced.build_s
    metrics["reporting.summary_s"] = untraced.summary_s
    metrics["trace.unattributed_share"] = attribution.unattributed_share
    metrics["trace.overhead_x"] = sum(traced.wall_s) / wall
    return metrics, problems


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = parse_args(argv)

    from perfbench.measure import count_calls, run_pass
    from perfbench.workloads import WORKLOADS

    factory = WORKLOADS[args.workload]
    if args.trace:
        with count_calls() as calls:
            untraced = [run_pass(factory, args.seed, args.scale)]
        passes = untraced + [traced_pass(factory, args)]
        metrics, problems = layer_metrics(passes[0], passes[1], calls)
        units = per_layer_units()
    else:
        setup_s = statistics.median(
            child_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
        )
        passes = untraced_passes(factory, args)
        wall = median_total(passes, "wall_s")
        metrics = {
            "wall_s": wall,
            "cpu_s": median_total(passes, "cpu_s"),
            "setup_s": setup_s
            + statistics.median(outcome.spec_s + outcome.build_s for outcome in passes),
            "sim_tokens_per_s": passes[0].sim_tokens / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        problems = []
        units = END_TO_END
    problems = check_repeats(passes) + problems

    attempted = sum(outcome.offered for outcome in passes)
    print(
        f"perfbench {args.workload} seed={args.seed} scale={args.scale:g} "
        f"trace={args.trace}: {len(passes)} passes of {len(passes[0].wall_s)} experiments"
    )
    print("  pass walls (s): " + " ".join(f"{sum(outcome.wall_s):.3f}" for outcome in passes))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    print("  simulated outputs (information only, not gated):")
    for row in passes[0].fidelity:
        print(
            f"    {row['spec']:14s} p50 {row['p50_s']:9.3f} s  p95 {row['p95_s']:9.3f} s  "
            f"{row['wh_per_query']:8.4f} Wh/query  {row['usd_per_1k_tok']:.6f} $/1k tok  "
            f"rejected {row['rejection_rate']:.3f}"
        )
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                # A failed check fails every op of the run.
                "failed": attempted if problems else 0,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
