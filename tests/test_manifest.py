"""The dependency manifest declares every third-party module the repo imports.

CI installs the package with its ``test`` extra for the suites, and the
package alone (its runtime ``dependencies``) for the examples, docs and
determinism lanes.  So a suite module that imports an undeclared package,
or a library, example or script module that imports anything beyond the
runtime dependencies, passes locally and fails at import in CI.  Import
names are compared with the declared distribution names normalised (lower
case, ``-`` -> ``_``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
SUITES = ("tests", "benchmarks", "perfbench")
PROGRAMS = ("src", "examples", "scripts")
FIRST_PARTY = {"repro", "tests", "perfbench", "bench_utils", "conftest"}


def declared_requirements(*keys: str) -> Set[str]:
    """Normalised names of the ``pyproject.toml`` lists named by ``keys``."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    names: Set[str] = set()
    for key in keys:
        listing = re.search(rf"^{key} = \[(.*?)\]", text, flags=re.MULTILINE | re.DOTALL)
        assert listing is not None, f"pyproject.toml has no {key} list"
        for requirement in re.findall(r'"([^"]+)"', listing.group(1)):
            name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
            names.add(name.lower().replace("-", "_"))
    return names


def third_party_imports(directories: Iterable[str]) -> Dict[str, str]:
    """Top-level third-party module -> the first file importing it."""
    found: Dict[str, str] = {}
    for directory in directories:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
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


def undeclared(imported: Dict[str, str], declared: Set[str]) -> Dict[str, str]:
    return {module: path for module, path in imported.items() if module.lower() not in declared}


def test_every_suite_import_is_declared():
    imported = third_party_imports(SUITES)
    assert "hypothesis" in imported  # the scan sees the suites' real imports
    missing = undeclared(imported, declared_requirements("dependencies", "test"))
    assert not missing, f"imported but not declared in pyproject.toml: {missing}"


def test_every_program_import_is_a_runtime_dependency():
    imported = third_party_imports(PROGRAMS)
    assert "numpy" in imported  # the scan sees the library's real imports
    missing = undeclared(imported, declared_requirements("dependencies"))
    assert not missing, f"imported but not in pyproject.toml dependencies: {missing}"
