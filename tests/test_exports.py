"""Every ``__all__`` of the ``repro`` package names something that exists.

A name deleted from a module but left in its package's ``__all__`` breaks
only ``from repro.<module> import *``, which no other test exercises; this
check fails on such a stale export instead.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules_with_exports():
    names = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    modules = [importlib.import_module(name) for name in names]
    return [module for module in modules if hasattr(module, "__all__")]


MODULES = _modules_with_exports()


def test_export_lists_exist():
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing members: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
