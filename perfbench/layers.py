"""Per-layer attribution of host time from a ``cProfile`` profile.

The layers are the repository's modules, grouped as in ``README.md``.  A
function's self time is charged to the layer whose module defines it.  Time
in functions defined outside ``repro`` (built-ins, the standard library,
dataclass-generated methods) is charged to the layers of its callers, in
proportion to the time each caller spent in it, so a ``dict.get`` inside
the scheduler counts as scheduler time.  Whatever reaches no ``repro``
caller (the harness itself, the profiler's own calls) is unattributed.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: Layer name -> module prefixes (relative to the ``repro`` package).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim",),
    "engine": ("llm.engine", "llm.energy", "llm.speculative"),
    "perf": ("llm.perf", "llm.hardware", "llm.models"),
    "scheduler": ("llm.scheduler", "llm.predictor"),
    "kv": ("llm.kvcache", "llm.prefix_cache"),
    "tokenizer": ("llm.tokenizer",),
    "request": ("llm.request", "llm.client"),
    "agents": ("agents", "workloads", "tools", "oracle"),
    "router": ("serving.cluster",),
    "control": (
        "serving.admission",
        "serving.autoscaler",
        "serving.forecast",
        "serving.planner",
    ),
    "loadgen": (
        "serving.loadgen",
        "serving.shapes",
        "serving.tenants",
        "serving.sessions",
    ),
    "api": ("api.spec", "api.builder", "api.runners", "api.study", "registry"),
    "reporting": ("api.results", "serving.server", "serving.sweep", "core", "analysis"),
}

UNATTRIBUTED = "unattributed"

Key = Tuple[str, int, str]


def module_layer(module: str) -> Optional[str]:
    """The layer of a ``repro``-relative dotted module name (``None`` if none)."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


class Attribution:
    """Self time and call counts per layer from ``pstats``-style raw stats.

    ``stats`` maps ``(file, line, function)`` to ``(primitive calls, calls,
    self time, cumulative time, callers)``, where ``callers`` maps each
    calling function's key to the same tuple restricted to that caller: the
    ``Profile.stats`` attribute after ``create_stats()``.
    """

    def __init__(self, stats: Dict[Key, tuple], package_dir: str):
        self._stats = stats
        self._package_dir = os.path.normcase(os.path.abspath(package_dir)) + os.sep
        self._own: Dict[Key, Optional[str]] = {}
        self._shares: Dict[Key, Dict[str, float]] = {}
        self._pending: set = set()
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.self_s[UNATTRIBUTED] = 0.0
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        for key, (_, calls, self_time, _, _) in stats.items():
            layer = self._layer_of(key)
            if layer is not None:
                self.calls[layer] += calls
            for target, share in self._shares_of(key).items():
                self.self_s[target] += self_time * share

    @property
    def unattributed_share(self) -> float:
        """Share of all self time that reached no ``repro`` caller."""
        total = sum(self.self_s.values())
        return self.self_s[UNATTRIBUTED] / total if total else 0.0

    def _layer_of(self, key: Key) -> Optional[str]:
        if key not in self._own:
            path = os.path.normcase(os.path.abspath(key[0])) if key[0] != "~" else ""
            layer = None
            if path.startswith(self._package_dir) and path.endswith(".py"):
                module = path[len(self._package_dir) : -3].replace(os.sep, ".")
                if module.endswith("__init__"):
                    module = module[: -len("__init__")].rstrip(".")
                layer = module_layer(module)
            self._own[key] = layer
        return self._own[key]

    def _shares_of(self, key: Key) -> Dict[str, float]:
        """How ``key``'s self time splits across layers (shares sum to 1).

        Call edges back into a function whose split is still being worked
        out (recursion among foreign functions) are left out of the split.
        """
        layer = self._layer_of(key)
        if layer is not None:
            return {layer: 1.0}
        if key in self._shares:
            return self._shares[key]
        self._pending.add(key)
        callers = {
            caller: entry
            for caller, entry in (self._stats[key][4] if key in self._stats else {}).items()
            if caller not in self._pending
        }
        weights = {caller: entry[2] for caller, entry in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        if total <= 0:
            shares[UNATTRIBUTED] = 1.0
        else:
            for caller, weight in weights.items():
                for target, share in self._shares_of(caller).items():
                    shares[target] = shares.get(target, 0.0) + share * weight / total
        self._pending.discard(key)
        self._shares[key] = shares
        return shares
