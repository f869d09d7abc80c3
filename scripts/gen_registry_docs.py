#!/usr/bin/env python
"""Autogenerate docs/REGISTRIES.md from the live policy registries.

The registry tables in prose documentation rot the moment someone
registers a new policy; this script makes the document a *projection* of
the code instead.  It imports every pluggable registry (agents,
workloads, scheduler policies, router policies, admission policies,
arrival forecasters, rate shapes), renders one table per registry --
name, implementing class, the spec fields the class reads (for a registry
whose classes declare ``READS``: admission policies and forecasters), and
the first line of the class docstring -- and writes ``docs/REGISTRIES.md``.

Modes::

    PYTHONPATH=src python scripts/gen_registry_docs.py           # rewrite
    PYTHONPATH=src python scripts/gen_registry_docs.py --check   # CI lane

``--check`` exits non-zero (printing a unified diff) when the committed
file does not match what the live registries would generate -- the CI
docs lane and ``tests/test_docs.py`` both run it, so a PR that adds a
policy without regenerating the document fails fast.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path
from typing import Callable, List, Mapping, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.agents.registry import AGENT_CLASSES  # noqa: E402
from repro.llm.hardware import GPU_CATALOG  # noqa: E402
from repro.llm.scheduler import SCHEDULER_POLICIES  # noqa: E402
from repro.serving.admission import ADMISSION_POLICIES  # noqa: E402
from repro.serving.cluster import ROUTER_POLICIES  # noqa: E402
from repro.serving.forecast import FORECASTERS  # noqa: E402
from repro.serving.shapes import RATE_SHAPES  # noqa: E402
from repro.workloads import available_workloads, create_workload  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "docs" / "REGISTRIES.md"

HEADER = """\
# Pluggable registries

> **Generated file — do not edit.**  Regenerate with
> `PYTHONPATH=src python scripts/gen_registry_docs.py` after registering a
> new policy; CI (and `tests/test_docs.py`) fails when this file is stale.

Every policy family below is a case-insensitive name → class registry
(see `src/repro/registry.py`).  Spec fields name entries by their
registry name (`ExperimentSpec(scheduler="vtc", router="session-affinity")`),
and each family exposes a `register_*` hook so external code can add
policies without touching this repository.  Where a family's classes are
built from a spec, the `reads` column lists the spec fields each class
reads, and the spec rejects a parameter of the family that is set away
from its default but not read by the chosen class (see `docs/SPECS.md`).
"""

#: (section title, spec field that names entries, registering module, rows).
Registry = Tuple[str, str, str, Mapping[str, type]]


def _first_doc_line(obj: object) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def _workload_classes() -> Mapping[str, type]:
    """Materialise each registered workload once to recover its class."""
    return {name: type(create_workload(name, seed=0)) for name in available_workloads()}


def _registries() -> Sequence[Registry]:
    return (
        (
            "Agents",
            "`ExperimentSpec.agent` / `WeightedWorkload.agent`",
            "`repro.agents.registry`",
            AGENT_CLASSES,
        ),
        (
            "Workloads",
            "`ExperimentSpec.workload` / `WeightedWorkload.workload`",
            "`repro.workloads` (`register_workload`)",
            _workload_classes(),
        ),
        (
            "Scheduler policies",
            "`ExperimentSpec.scheduler` / `PoolSpec.scheduler`",
            "`repro.llm.scheduler` (`register_scheduler_policy`)",
            SCHEDULER_POLICIES,
        ),
        (
            "Router policies",
            "`ExperimentSpec.router` / `PoolSpec.router`",
            "`repro.serving.cluster` (`register_router_policy`)",
            ROUTER_POLICIES,
        ),
        (
            "Admission policies",
            "`AdmissionSpec.policy`",
            "`repro.serving.admission` (`register_admission_policy`)",
            ADMISSION_POLICIES,
        ),
        (
            "Arrival forecasters",
            "`AutoscalerSpec.forecaster`",
            "`repro.serving.forecast` (`register_forecaster`)",
            FORECASTERS,
        ),
        (
            "Rate shapes",
            "`ArrivalSpec.shape` / `WeightedWorkload.shape`",
            "`repro.serving.shapes` (`register_shape`)",
            RATE_SHAPES,
        ),
    )


def _render_gpu_catalog() -> str:
    """The GPU catalog section: instances, not classes, so it gets its own
    table shape (roofline, power, and price columns instead of docstrings)."""
    parts: List[str] = ["\n## GPU catalog\n"]
    parts.append(
        "Named by `HardwareSpec.gpu` (on `PoolSpec.hardware` /\n"
        "`ExperimentSpec.hardware`); registered in `repro.llm.hardware`\n"
        "(`register_gpu`).  Prices are GCP us-central1 on-demand per\n"
        "GPU-hour; rooflines are vendor datasheet numbers (dense bf16).\n"
    )
    parts.append(
        "\n| name | aliases | $/GPU-hr | peak TFLOP/s | HBM GB/s | mem GB "
        "| idle/decode/prefill W |"
    )
    parts.append("\n| --- | --- | --- | --- | --- | --- | --- |")
    by_spec: dict = {}
    for key, spec in GPU_CATALOG.items():
        by_spec.setdefault(id(spec), [spec, []])[1].append(key)
    for spec, keys in sorted(by_spec.values(), key=lambda entry: entry[0].name):
        aliases = sorted(key for key in keys if key != spec.name.lower())
        parts.append(
            f"\n| `{spec.name}` | {', '.join(f'`{a}`' for a in aliases) or '--'} "
            f"| {spec.cost_per_hour:.2f} | {spec.peak_flops / 1e12:.0f} "
            f"| {spec.mem_bandwidth / 1e9:,.0f} | {spec.mem_capacity / 1e9:.0f} "
            f"| {spec.idle_power_w:.0f}/{spec.decode_power_w:.0f}/"
            f"{spec.prefill_power_w:.0f} |"
        )
    parts.append("\n")
    return "".join(parts)


def render() -> str:
    """The full REGISTRIES.md content the live registries imply."""
    parts: List[str] = [HEADER]
    for title, field, module, entries in _registries():
        # Classes that declare READS get a column of the spec fields they read.
        declares_reads = any(hasattr(cls, "READS") for cls in entries.values())
        columns = ["name", "class", "reads", "summary"]
        if not declares_reads:
            columns.remove("reads")
        parts.append(f"\n## {title}\n")
        parts.append(f"Named by {field}; registered in {module}.\n")
        parts.append("\n| " + " | ".join(columns) + " |")
        parts.append("\n|" + " --- |" * len(columns))
        for name in sorted(entries):
            cls = entries[name]
            cells = [f"`{name}`", f"`{cls.__name__}`", _first_doc_line(cls)]
            if declares_reads:
                cells.insert(2, ", ".join(f"`{read}`" for read in cls.READS) or "--")
            parts.append("\n| " + " | ".join(cells) + " |")
        parts.append("\n")
    parts.append(_render_gpu_catalog())
    return "".join(parts)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed file matches the registries (exit 1 when stale)",
    )
    options = parser.parse_args(argv)

    content = render()
    if options.check:
        on_disk = OUTPUT_PATH.read_text() if OUTPUT_PATH.exists() else ""
        if on_disk == content:
            print(f"{OUTPUT_PATH.relative_to(REPO_ROOT)} is up to date")
            return 0
        diff = difflib.unified_diff(
            on_disk.splitlines(keepends=True),
            content.splitlines(keepends=True),
            fromfile="docs/REGISTRIES.md (committed)",
            tofile="docs/REGISTRIES.md (generated)",
        )
        sys.stderr.write("".join(diff))
        sys.stderr.write(
            "\ndocs/REGISTRIES.md is stale; regenerate with:\n"
            "    PYTHONPATH=src python scripts/gen_registry_docs.py\n"
        )
        return 1

    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(content)
    print(f"wrote {OUTPUT_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
