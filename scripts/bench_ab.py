#!/usr/bin/env python
"""Interleaved A/B of the benchmark: this checkout against a base checkout.

Runs the repository's benchmark command (``perfbench/run.py --trace 0``)
unchanged in both trees, one pair of runs per seed, alternating which side
goes first so that drift in host speed lands on both sides alike.  Prints,
for every end-to-end metric in ``BENCHMARK.json``, each side's median and
quartiles over the pairs, the change/base ratio of the medians, and how
many pairs the change won; the last line of standard output is the same
report as one JSON object.  Before the timed pairs, each tree computes the
digest of its simulated outputs for the first seed once, untimed
(``perfbench.measure.run_pass(...).digest``), and the report states whether
the two agree (``outputs_identical``), so a speed-only change shows its
bit-for-bit claim beside its timings.  Exits 1 when any run is not
``correct`` or has failed operations.

Usage, from the repository root::

    python scripts/bench_ab.py --base HEAD~1 --workload kv1k --pairs 10 --seconds 20
    python scripts/bench_ab.py --base ../other-checkout --workload fleet16

``--base`` is a directory holding a checkout, or a git revision, which is
checked out with ``git worktree add --detach`` into a temporary directory
and removed afterwards.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
#: One untimed pass in the working directory's tree; prints its digest.
DIGEST_PASS = """
import sys
sys.path[:0] = ["src", "."]
from perfbench.measure import run_pass
from perfbench.workloads import WORKLOADS
print(run_pass(WORKLOADS[sys.argv[1]], int(sys.argv[2]), float(sys.argv[3])).digest)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base", required=True, help="git revision or checkout directory"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--first-seed", type=int, default=1, help="pair i runs seed first-seed + i"
    )
    return parser.parse_args(argv)


@contextlib.contextmanager
def base_tree(base: str) -> Iterator[Path]:
    """The base checkout: ``base`` itself, or a temporary worktree of it."""
    if Path(base).is_dir():
        yield Path(base).resolve()
        return
    scratch = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    tree = scratch / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(tree), base],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    try:
        yield tree
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(tree)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)


def run_benchmark(tree: Path, args: argparse.Namespace, seed: int) -> dict:
    """One benchmark run in ``tree``: its JSON report, or a failed stand-in."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        "--scale", str(args.scale),
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def output_digest(tree: Path, args: argparse.Namespace) -> str:
    """Digest of ``tree``'s simulated outputs at the first seed ("" on error)."""
    command = [
        sys.executable, "-c", DIGEST_PASS, args.workload, str(args.first_seed),
        str(args.scale),
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        return ""
    return completed.stdout.strip()


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]``, interpolated between the sorted values."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    healthy = True
    with base_tree(args.base) as base:
        trees = {"base": base, "change": ROOT}
        digests = {side: output_digest(trees[side], args) for side in SIDES}
        identical = bool(digests["base"]) and digests["base"] == digests["change"]
        for side in SIDES:
            print(f"{side:6s} outputs at seed {args.first_seed}: {digests[side] or 'FAILED'}")
        print(f"outputs identical: {identical}", flush=True)
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                report = run_benchmark(trees[side], args, seed)
                runs[side].append(report)
                ok = report["correct"] and report["failed"] == 0
                healthy = healthy and ok
                wall = report["metrics"].get("wall_s", {}).get("value", float("nan"))
                print(
                    f"pair {pair + 1} seed {seed} {side:6s} wall_s {wall:.3f}"
                    + ("" if ok else "  FAILED"),
                    flush=True,
                )

    summary = {}
    print(f"\n{args.workload}: {args.pairs} pairs, base {args.base}")
    print(f"{'metric':18s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>6s}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {
            side: [report["metrics"].get(name, {}).get("value", float("nan"))
                   for report in runs[side]]
            for side in SIDES
        }
        wins = sum(
            (change < base) if lower else (change > base)
            for base, change in zip(values["base"], values["change"])
        )
        stats = {side: quartiles(values[side]) for side in SIDES}
        base_median = stats["base"][1]
        ratio = stats["change"][1] / base_median if base_median else float("nan")
        summary[name] = {
            **{side: dict(zip(("q1", "median", "q3"), stats[side])) for side in SIDES},
            "ratio": ratio,
            "wins": wins,
        }
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in stats.values()]
        print(f"{name:18s} {cells[0]:>34s} {cells[1]:>34s} {ratio:7.3f} "
              f"{wins:>3d}/{args.pairs}")
    if not healthy:
        print("FAIL: a run was not correct or had failed operations")
    print(json.dumps({"workload": args.workload, "pairs": args.pairs,
                      "healthy": healthy, "outputs_identical": identical,
                      "metrics": summary}))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
