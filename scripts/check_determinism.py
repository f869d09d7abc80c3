#!/usr/bin/env python
"""Hash-seed determinism check: the simulator's output must not depend on
``PYTHONHASHSEED``.

The reproduction's headline contract is bit-for-bit determinism: the same
:class:`~repro.api.ExperimentSpec` produces the same :class:`ResultSet`
on every run, every machine, every Python process.  The easiest way to
break that silently is to iterate a set (or an insertion-unordered dict)
of hash-randomised keys somewhere in the scheduling or aggregation path
-- the tests all pass within one process, and results drift between
processes.  This script pins the contract the way CI exercises it: run a
small but representative experiment battery -- including the chunked
prefill and speculative-decoding fidelity paths, many vtc tenants under
KV pressure, per-tenant oit-throttle delays, a least-loaded fleet and a
shed, autoscaled two-pool fleet -- in two fresh
interpreters with *different* hash seeds, serialise every result to
canonical JSON (full latency vectors, not just summaries), and diff.

Modes::

    PYTHONPATH=src python scripts/check_determinism.py           # CI lane
    PYTHONPATH=src python scripts/check_determinism.py --emit    # one run

The default mode spawns itself twice (``PYTHONHASHSEED=0`` and ``=42``)
and fails loudly on the first differing byte; ``--emit`` prints one
battery's canonical JSON to stdout (useful for diffing across machines
or commits by hand).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

HASH_SEEDS = ("0", "42")


def battery() -> dict:
    """Run the experiment battery and return a JSON-ready payload."""
    from repro.api import (
        AdmissionSpec,
        ArrivalSpec,
        AutoscalerSpec,
        ExperimentSpec,
        PoolSpec,
        SpeculativeSpec,
        TenantSpec,
        WeightedWorkload,
        run_experiment,
    )
    from repro.agents import AgentConfig

    def mixture(num_requests: int = 12, **overrides) -> ExperimentSpec:
        return ExperimentSpec(
            workloads=(
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", weight=0.7, name="chat"
                ),
                WeightedWorkload(
                    agent="react", workload="hotpotqa", weight=0.3, name="agent"
                ),
            ),
            agent_config=AgentConfig(max_iterations=4),
            arrival=ArrivalSpec(
                process="poisson",
                qps=8.0,
                num_requests=num_requests,
                task_pool_size=6,
            ),
            max_num_seqs=4,
            **overrides,
        )

    specs = {
        "baseline": mixture(),
        "chunked-prefill": mixture(prefill_chunk_tokens=128),
        "speculative": mixture(speculative=SpeculativeSpec()),
        "chunked+speculative": mixture(
            prefill_chunk_tokens=128, speculative=SpeculativeSpec()
        ),
        "tenanted-vtc": ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            scheduler="vtc",
            arrival=ArrivalSpec(
                process="poisson",
                qps=8.0,
                num_requests=12,
                task_pool_size=6,
            ),
            max_num_seqs=2,
        ),
        # Many tenants behind a nearly full KV cache: vtc's deferred joins
        # and preemption's re-queue at the front of the index.
        "vtc-kv-pressure": ExperimentSpec(
            workloads=(
                WeightedWorkload(
                    agent="chatbot", workload="sharegpt", weight=0.6, name="chat"
                ),
                WeightedWorkload(
                    agent="react", workload="hotpotqa", weight=0.4, name="agent"
                ),
            ),
            agent_config=AgentConfig(max_iterations=4),
            scheduler="vtc",
            kv_cache_fraction=0.02,
            arrival=ArrivalSpec(
                process="poisson",
                qps=16.0,
                num_requests=40,
                task_pool_size=40,
                tenants=TenantSpec(num_users=1000, skew=1.6, num_apps=8),
            ),
        ),
        # Per-tenant throttling keyed by tenant strings: windows and
        # in-flight counts per user, and delay-mode re-offers (three users
        # at 0.5 qps, one admission each per 30 s window while any request
        # runs; 6 of the 24 arrivals wait at the door).
        "oit-throttle-delay": mixture(
            admission=AdmissionSpec(
                policy="oit-throttle",
                user_rpm=2.0,
                kv_threshold=0.01,
                queue_threshold=0.1,
                overload_action="delay",
            ),
        ).with_overrides(
            arrival=ArrivalSpec(
                process="poisson",
                qps=0.5,
                num_requests=24,
                task_pool_size=6,
                tenants=TenantSpec(num_users=3),
            ),
        ),
        # Fleets: decode runs span other replicas' events, so routing,
        # admission and the autoscaler read engines mid-run.
        "chat-fleet": ExperimentSpec(
            agent="chatbot",
            workload="sharegpt",
            replicas=4,
            router="least-loaded",
            arrival=ArrivalSpec(
                process="poisson", qps=12.0, num_requests=24, task_pool_size=12
            ),
        ),
        "shed-autoscaled-pools": mixture(
            num_requests=24,
            pools=(
                PoolSpec(name="chat", replicas=2, traffic_classes=("chat",)),
                PoolSpec(
                    name="agent",
                    replicas=1,
                    router="least-loaded",
                    traffic_classes=("agent",),
                ),
            ),
            admission=AdmissionSpec(
                per_class=(
                    (
                        "agent",
                        AdmissionSpec(
                            policy="slo-shed", slo_p95_s=4.0, protect_class="chat"
                        ),
                    ),
                )
            ),
            autoscaler=AutoscalerSpec(
                pool="agent",
                max_replicas=3,
                check_interval_s=1.0,
                warmup_s=2.0,
                mode="predictive",
                forecaster="holt",
            ),
        ),
    }
    payload = {}
    for name, spec in specs.items():
        result = run_experiment(spec)
        payload[name] = {
            "summary": result.summary(),
            # Full vectors: a summary can agree while orderings drift.
            "latencies": result.latencies,
            "spec": spec.to_dict(),
        }
    return payload


def emit() -> None:
    print(json.dumps(battery(), sort_keys=True, indent=1))


def compare() -> int:
    outputs = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        print(f"running battery under PYTHONHASHSEED={seed} ...", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--emit"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"FAIL: battery crashed under PYTHONHASHSEED={seed}")
            return 1
        outputs[seed] = proc.stdout
    first, second = (outputs[seed] for seed in HASH_SEEDS)
    if first != second:
        a_lines, b_lines = first.splitlines(), second.splitlines()
        for index, (a, b) in enumerate(zip(a_lines, b_lines)):
            if a != b:
                print(f"FAIL: outputs diverge at line {index + 1}:")
                print(f"  PYTHONHASHSEED={HASH_SEEDS[0]}: {a}")
                print(f"  PYTHONHASHSEED={HASH_SEEDS[1]}: {b}")
                break
        else:
            print("FAIL: outputs diverge in length")
        print(
            "The simulator's results depend on hash randomisation -- look "
            "for iteration over a set or unordered dict on the run path."
        )
        return 1
    print(
        f"OK: identical canonical output ({len(first)} bytes) under "
        f"PYTHONHASHSEED={{{', '.join(HASH_SEEDS)}}}"
    )
    return 0


def main() -> int:
    if "--emit" in sys.argv[1:]:
        emit()
        return 0
    return compare()


if __name__ == "__main__":
    sys.exit(main())
