"""The dependency manifest declares every third-party module the suites import.

CI installs the ``test`` extra of ``pyproject.toml`` and nothing else, so a
test, benchmark or perfbench module that imports an undeclared package
passes locally and fails at collection in CI.  Import names are compared
with the declared distribution names normalised (lower case, ``-`` -> ``_``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
SUITES = ("tests", "benchmarks", "perfbench")
FIRST_PARTY = {"repro", "tests", "perfbench", "bench_utils", "conftest"}


def declared_requirements() -> Set[str]:
    """Normalised names of the runtime dependencies plus the ``test`` extra."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    names: Set[str] = set()
    for key in ("dependencies", "test"):
        listing = re.search(rf"^{key} = \[(.*?)\]", text, flags=re.MULTILINE | re.DOTALL)
        assert listing is not None, f"pyproject.toml has no {key} list"
        for requirement in re.findall(r'"([^"]+)"', listing.group(1)):
            name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
            names.add(name.lower().replace("-", "_"))
    return names


def third_party_imports() -> Dict[str, str]:
    """Top-level third-party module -> the first suite file importing it."""
    found: Dict[str, str] = {}
    for suite in SUITES:
        for path in sorted((REPO_ROOT / suite).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if top not in sys.stdlib_module_names and top not in FIRST_PARTY:
                        found.setdefault(top, str(path.relative_to(REPO_ROOT)))
    return found


def test_every_suite_import_is_declared():
    imported = third_party_imports()
    assert "hypothesis" in imported  # the scan sees the suites' real imports
    declared = declared_requirements()
    missing = {
        module: path for module, path in imported.items() if module.lower() not in declared
    }
    assert not missing, f"imported but not declared in pyproject.toml: {missing}"
