"""One pass of a workload: timing, deterministic counters, output checks, digest.

A pass constructs the workload's specs, runs each through
:func:`repro.api.run_experiment`, and calls ``ResultSet.summary()`` on every
result.  The engines are reached through the :class:`repro.api.System` each
``SystemBuilder.build`` call returns, captured by a hook the benchmark
installs on the class for the duration of the pass (no source change).  Each
system is inspected, outside the timed region, as soon as its experiment
returns and is then released, so the pass holds no more memory than a user's
run would.  Everything except the timings is a pure function of the specs:
two passes of one seed must agree on the counters and on the digest exactly.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: BlockAllocator methods that change allocator state; one call is one op.
ALLOCATOR_OPS = (
    "allocate",
    "acquire",
    "release",
    "acquire_many",
    "release_many",
    "register_hash",
    "register_hashes",
)


@dataclass
class Pass:
    """What one pass measured and what it checked.

    ``wall_s`` and ``cpu_s`` hold one entry per experiment of the workload.
    """

    wall_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    spec_s: float = 0.0
    build_s: float = 0.0
    summary_s: float = 0.0
    offered: int = 0
    sim_tokens: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    fidelity: List[Dict[str, Any]] = field(default_factory=list)
    digest: str = ""
    #: Traced passes only: the layer attribution and the profiler's counts
    #: of the calls :func:`count_calls` counts.
    attribution: Any = None
    profiled_calls: Dict[str, int] = field(default_factory=dict)


@contextlib.contextmanager
def capture_builds() -> Iterator[List[Any]]:
    """Collect ``[system, build seconds]`` for every ``SystemBuilder.build``."""
    from repro.api import SystemBuilder

    built: List[Any] = []
    original = SystemBuilder.build

    def build(self):
        started = time.perf_counter()
        system = original(self)
        built.append([system, time.perf_counter() - started])
        return system

    SystemBuilder.build = build
    try:
        yield built
    finally:
        SystemBuilder.build = original


@contextlib.contextmanager
def count_calls() -> Iterator[Dict[str, int]]:
    """Count allocator ops and synthetic-token materialisation while active.

    These counts have no public attribute, so the benchmark wraps the two
    classes' methods for one untimed pass and restores them afterwards.
    """
    from repro.llm.kvcache import BlockAllocator
    from repro.llm.tokenizer import SyntheticTokenizer

    counts = {
        "kv.allocator_ops": 0,
        "tokenizer.synthetic_tokens_calls": 0,
        "tokenizer.materialised_tokens": 0,
    }
    originals = {name: getattr(BlockAllocator, name) for name in ALLOCATOR_OPS}
    original_tokens = SyntheticTokenizer.synthetic_tokens

    def counted(method: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            counts["kv.allocator_ops"] += 1
            return method(*args, **kwargs)

        return wrapper

    def synthetic_tokens(self, *args, **kwargs):
        tokens = original_tokens(self, *args, **kwargs)
        counts["tokenizer.synthetic_tokens_calls"] += 1
        counts["tokenizer.materialised_tokens"] += len(tokens)
        return tokens

    for name, method in originals.items():
        setattr(BlockAllocator, name, counted(method))
    SyntheticTokenizer.synthetic_tokens = synthetic_tokens
    try:
        yield counts
    finally:
        for name, method in originals.items():
            setattr(BlockAllocator, name, method)
        SyntheticTokenizer.synthetic_tokens = original_tokens


def profiled_calls(stats: Dict[tuple, tuple]) -> Dict[str, int]:
    """The call counters of :func:`count_calls`, read from ``cProfile`` stats."""
    counts = {"kv.allocator_ops": 0, "tokenizer.synthetic_tokens_calls": 0}
    for (path, _, function), entry in stats.items():
        path = path.replace("\\", "/")
        if path.endswith("repro/llm/kvcache.py") and function in ALLOCATOR_OPS:
            counts["kv.allocator_ops"] += entry[1]
        elif path.endswith("repro/llm/tokenizer.py") and function == "synthetic_tokens":
            counts["tokenizer.synthetic_tokens_calls"] += entry[1]
    return counts


def run_pass(
    factory: Callable[..., list],
    seed: int,
    scale: float = 1.0,
    profiler: Optional[Any] = None,
) -> Pass:
    """Run one workload pass; ``profiler`` (a ``cProfile.Profile``) is optional.

    Only the experiments and their ``summary()`` calls are timed (and
    profiled); spec construction is timed apart as set-up work.
    """
    from repro.api import run_experiment

    outcome = Pass()
    gc.collect()
    results, summaries = [], []
    totals: Dict[str, Any] = {}
    specs = iter(factory(seed, scale, results))
    with capture_builds() as built:
        while True:
            started = time.perf_counter()
            spec = next(specs, None)
            outcome.spec_s += time.perf_counter() - started
            if spec is None:
                break
            if profiler is not None:
                profiler.enable()
            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            result = run_experiment(spec)
            summary_started = time.perf_counter()
            summaries.append(result.summary())
            wall_ended = time.perf_counter()
            outcome.cpu_s.append(time.process_time() - cpu_started)
            if profiler is not None:
                profiler.disable()
            outcome.wall_s.append(wall_ended - wall_started)
            outcome.summary_s += wall_ended - summary_started
            results.append(result)
            system, build_s = built.pop()
            outcome.build_s += build_s
            _add_system(totals, system)
            del system, result

    _check(outcome, results, summaries, totals)
    return outcome


def _add_system(totals: Dict[str, Any], system) -> None:
    """Accumulate one finished system's engine-side counters into ``totals``."""
    engines = list(system.cluster.engines)
    records = totals.setdefault("records", [])
    problems = totals.setdefault("problems", [])
    peak = totals.get("peak", 0.0)
    for engine in engines:
        active = engine.kv_cache.allocator.num_active_blocks
        if active or engine.num_pending_requests:
            problems.append(
                f"engine {len(records)}: {active} KV blocks still referenced, "
                f"{engine.num_pending_requests} requests pending at drain"
            )
        steps = engine.step_records
        records.append(
            [
                len(steps),
                sum(record.duration for record in steps),
                sum(record.energy_joules for record in steps),
                sum(record.new_tokens for record in steps),
                sum(record.cached_tokens for record in steps),
                sum(record.generated_tokens for record in steps),
            ]
        )
        totals["steps"] = totals.get("steps", 0) + sum(
            1 for record in steps if record.kind != "idle"
        )
        peak = max(
            peak,
            max((record.kv_blocks_active for record in steps), default=0)
            / engine.kv_cache.allocator.num_blocks,
        )
    totals["peak"] = peak
    for name, value in (
        ("events", system.env.events_processed),
        ("generated", sum(engine.total_generated_tokens for engine in engines)),
        ("prefill", sum(engine.total_prefill_tokens for engine in engines)),
        ("hits", sum(engine.kv_cache.cached_token_hits for engine in engines)),
        ("seen", sum(engine.kv_cache.prompt_tokens_seen for engine in engines)),
        ("preemptions", system.cluster.preemption_count),
        ("selects", sum(system.cluster.routed_counts)),
        (
            "invalidations",
            sum(
                getattr(pool.router, "invalidations", 0)
                for pool in system.cluster.pools.values()
            ),
        ),
        ("scaling_events", len(system.cluster.scaling_events)),
    ):
        totals[name] = totals.get(name, 0) + value


def _runs(result) -> list:
    """The agent runs a result returned (one per task or served turn)."""
    if result.characterization is not None:
        return [observation.result for observation in result.characterization.observations]
    return result.serving.results


def _interactions(result) -> Dict[str, List[int]]:
    """Per traffic class: [offered interactions, completed, policy-rejected]."""
    from repro.serving.admission import UNLABELLED

    spec = result.spec
    if result.characterization is not None:
        return {UNLABELLED: [spec.arrival.num_requests, len(_runs(result)), 0]}
    sessions = {mix.name: mix.sessions or spec.arrival.sessions for mix in spec.workloads}
    rows = {
        label: [stats.offered, 0, stats.rejected]
        for label, stats in result.admission_stats.items()
    }
    for run in result.serving.results:
        label = run.metadata.get("traffic_class")
        shape = sessions.get(label, spec.arrival.sessions)
        if shape is not None and run.metadata.get("session_turn") != shape.turns:
            continue  # an earlier turn of a session, not a finished interaction
        rows.setdefault(UNLABELLED if label is None else label, [0, 0, 0])[1] += 1
    return rows


def _headlines(results) -> List[Dict[str, Any]]:
    """Simulated headline per kind of experiment, pooled over its seeds."""
    from repro.core.metrics import LatencyStats

    groups: Dict[str, list] = {}
    for result in results:
        spec = result.spec
        label = "+".join(mix.name for mix in spec.workloads) or f"{spec.agent}/{spec.model}"
        groups.setdefault(label, []).append(result)
    rows = []
    for label, group in groups.items():
        latency = LatencyStats.from_values([value for result in group for value in result.latencies])
        completed = sum(result.num_completed for result in group)
        served = sum(result.served_tokens for result in group)
        offered = sum(stats.offered for result in group for stats in result.admission_stats.values())
        rows.append(
            {
                "spec": label,
                "p50_s": latency.p50,
                "p95_s": latency.p95,
                "wh_per_query": sum(result.energy_wh for result in group) / max(completed, 1),
                "usd_per_1k_tok": sum(result.cost_usd for result in group) / served * 1000.0
                if served
                else 0.0,
                "rejection_rate": sum(result.num_rejected for result in group) / max(offered, 1),
            }
        )
    return rows


def _check(outcome: Pass, results, summaries, totals: Dict[str, Any]) -> None:
    """Output checks, counters, fidelity rows and digest of one pass."""
    problems = outcome.problems
    problems.extend(totals.get("problems", []))  # KV blocks and queues at drain

    # Every offered interaction completed or was shed by admission policy.
    for index, result in enumerate(results):
        for label, (offered, completed, rejected) in _interactions(result).items():
            outcome.offered += offered
            if offered != completed + rejected:
                problems.append(
                    f"spec {index} class {label or '(all)'}: offered {offered} != "
                    f"completed {completed} + rejected {rejected}"
                )

    # Engine-generated tokens equal the outputs the requests received.
    requested = sum(run.total_output_tokens for result in results for run in _runs(result))
    if totals["generated"] != requested:
        problems.append(
            f"engines generated {totals['generated']} tokens, requests hold {requested}"
        )

    # Session turns balance.
    for index, result in enumerate(results):
        stats = result.session_stats
        if stats is None:
            continue
        turns = sum(1 for run in result.serving.results if "session" in run.metadata)
        if stats.num_sessions != stats.completed_sessions or stats.total_turns != turns:
            problems.append(
                f"spec {index}: {stats.num_sessions} sessions started, "
                f"{stats.completed_sessions} finished, {stats.total_turns} turns "
                f"counted, {turns} turns returned"
            )

    queue_times = [
        call.queue_time for result in results for run in _runs(result) for call in run.llm_calls
    ]
    admission = [stats for result in results for stats in result.admission_stats.values()]
    events = totals["events"]
    outcome.sim_tokens = totals["prefill"] + totals["generated"]
    outcome.counters = {
        "sim.events": events,
        "engine.steps": totals["steps"],
        "engine.steps_per_event": totals["steps"] / events,
        "engine.generated_tokens": totals["generated"],
        "engine.prefill_tokens": totals["prefill"],
        "scheduler.preemptions": totals["preemptions"],
        "scheduler.sim_mean_queue_s": sum(queue_times) / max(len(queue_times), 1),
        "kv.prefix_hit_rate": totals["hits"] / max(totals["seen"], 1),
        "kv.peak_utilisation": totals["peak"],
        "router.selects": totals["selects"],
        "router.affinity_invalidations": totals["invalidations"],
        "control.offers": sum(stats.offered for stats in admission),
        "control.rejected": sum(stats.rejected for stats in admission),
        "control.scaling_events": totals["scaling_events"],
        "loadgen.arrivals": outcome.offered,
    }

    outcome.fidelity = _headlines(results)

    payload = {
        "summaries": summaries,
        "classes": [result.per_class_summary() for result in results],
        "pools": [result.per_pool_summary() for result in results],
        "admission": [result.per_class_admission() for result in results],
        "step_records": totals["records"],
    }
    outcome.digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()
