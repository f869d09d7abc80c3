"""Documentation freshness: generated docs must match the live registries."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_registry_docs", REPO_ROOT / "scripts" / "gen_registry_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegistryDocs:
    def test_registries_md_is_fresh(self):
        generator = _load_generator()
        committed = (DOCS / "REGISTRIES.md").read_text()
        assert committed == generator.render(), (
            "docs/REGISTRIES.md is stale; regenerate with: "
            "PYTHONPATH=src python scripts/gen_registry_docs.py"
        )

    def test_check_mode_passes_when_fresh(self):
        generator = _load_generator()
        assert generator.main(["--check"]) == 0

    def test_every_registry_entry_is_documented(self):
        from repro.llm.scheduler import available_scheduler_policies
        from repro.serving.admission import available_admission_policies
        from repro.serving.cluster import available_router_policies
        from repro.serving.forecast import available_forecasters
        from repro.serving.shapes import available_shapes

        text = (DOCS / "REGISTRIES.md").read_text()
        for name in (
            *available_scheduler_policies(),
            *available_router_policies(),
            *available_admission_policies(),
            *available_forecasters(),
            *available_shapes(),
        ):
            assert f"| `{name}` |" in text, f"registry entry {name!r} undocumented"


class TestHandWrittenDocs:
    def test_doc_suite_exists(self):
        for name in ("ARCHITECTURE.md", "SPECS.md", "METRICS.md", "REGISTRIES.md"):
            assert (DOCS / name).is_file(), f"docs/{name} missing"

    def test_relative_links_resolve(self):
        # Every intra-repo markdown link in docs/ and README.md must point at
        # a real file; external links (scheme://) are out of scope.
        link = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")
        for source in (*DOCS.glob("*.md"), REPO_ROOT / "README.md"):
            for target in link.findall(source.read_text()):
                target = target.strip()
                if "://" in target or not target:
                    continue
                base = source.parent if source.parent != REPO_ROOT else REPO_ROOT
                resolved = (base / target).resolve()
                assert resolved.exists(), f"{source.name}: broken link to {target}"

    @staticmethod
    def _spec_types():
        # Every dataclass reachable from ExperimentSpec's declared field
        # types, resolved as repro.api.codec reads them.  Rate shapes are
        # declared as the RateShape base, which is no dataclass, so the walk
        # stops there: REGISTRIES.md documents the shapes.
        import dataclasses
        import typing

        from repro.api import ExperimentSpec

        found, pending = {}, [ExperimentSpec]
        while pending:
            declared = pending.pop()
            if dataclasses.is_dataclass(declared):
                if declared.__name__ not in found:
                    found[declared.__name__] = declared
                    pending.extend(typing.get_type_hints(declared).values())
            else:
                pending.extend(typing.get_args(declared))
        return found

    def test_specs_doc_covers_every_spec_type(self):
        text = (DOCS / "SPECS.md").read_text()
        spec_types = self._spec_types()
        assert {"ExperimentSpec", "AgentConfig", "HardwareSpec"} <= set(spec_types)
        for spec_name in (*spec_types, "StudySpec"):
            assert f"## {spec_name}" in text, (
                f"docs/SPECS.md does not document {spec_name}"
            )

    def test_specs_field_tables_match_dataclasses(self):
        # Each spec section's field table lists exactly the dataclass's
        # fields: adding, renaming or deleting a field must update the doc.
        import dataclasses

        text = (DOCS / "SPECS.md").read_text()
        spec_types = self._spec_types()
        checked = []
        for section in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
            title, _, body = section.partition("\n")
            spec_type = spec_types.get(title.strip())
            if spec_type is None:
                continue  # prose-only sections such as "StudySpec / StudyAxis"
            first_cells = re.findall(r"^\| ([^|]*?) \|", body, flags=re.MULTILINE)
            documented = [
                name for cell in first_cells for name in re.findall(r"`(\w+)`", cell)
            ]
            fields = [field.name for field in dataclasses.fields(spec_type)]
            assert sorted(documented) == sorted(fields), title
            checked.append(title)
        assert sorted(checked) == sorted(spec_types)

    @staticmethod
    def _metric_rows():
        text = (DOCS / "METRICS.md").read_text()
        rows = re.findall(
            r"^\| `([a-z_0-9]+)` \| ([^|]+?) \| ([a-z]+) \|", text, flags=re.MULTILINE
        )
        assert len(rows) == len(set(rows)), "a metric row is repeated"
        return set(rows)

    def test_metrics_doc_matches_resolvable_names(self):
        # Every documented (name, unit, scope) row is a declared metric
        # (the doc is a contract, not a wish list).
        from repro.api.results import METRICS

        declared = {(name, unit, scope) for name, (unit, scope) in METRICS.items()}
        documented = self._metric_rows()
        assert len(documented) > 20
        assert not documented - declared, "documented rows METRICS does not declare"

    def test_every_scalar_metric_is_documented(self):
        # The other direction: every declared metric (the names metric()
        # and studies resolve) has a row with its unit and scope.
        from repro.api.results import METRICS

        declared = {(name, unit, scope) for name, (unit, scope) in METRICS.items()}
        undocumented = sorted(declared - self._metric_rows())
        assert not undocumented, f"docs/METRICS.md lacks rows for {undocumented}"

    def test_architecture_doc_names_every_study(self):
        # Every study repro.analysis exports appears in the architecture
        # map, so a new study cannot ship undocumented.
        import repro.analysis

        text = (DOCS / "ARCHITECTURE.md").read_text()
        studies = [name for name in repro.analysis.__all__ if name.endswith("_study")]
        assert len(studies) >= 9, studies
        missing = [name for name in studies if f"`{name}`" not in text]
        assert not missing, f"docs/ARCHITECTURE.md does not name {missing}"
