"""Per-layer cost ledger: cProfile statistics grouped into the repo's layers.

A layer is a set of modules under ``src/repro`` (see :data:`LAYER_RULES`).
From one profiled pass the ledger reports, per layer ``L``:

* ``L.self_s`` — cProfile ``tottime`` of the layer's functions.  Time in
  builtins, the standard library and other non-repro code is charged to
  the layer that called it, split by the per-caller ``tottime`` cProfile
  records (recursively, for stdlib called by stdlib);
* ``L.calls`` — Python calls into the layer's functions (a generator
  resume counts as a call, as it does in cProfile);
* ``L.dispatches`` — callbacks the engine loop invoked that landed in the
  layer.  A process resume is charged to the module of the generator it
  resumed, not to the engine's resume helper.

Everything here reads ``pstats``-style dictionaries and source files; it
imports nothing from the simulator.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Optional, Tuple

#: the layers, in reporting order.
LAYERS: Tuple[str, ...] = (
    "sim", "interconnect", "memory", "gpu.gemm", "gpu.dma", "t3",
    "collectives", "policy", "faults", "resilience", "obs", "trace",
    "experiments",
)

#: (path under src/repro, layer); the first matching prefix wins.  Each
#: top-level package and module is listed, so a new one is unmapped until
#: someone decides where it belongs.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("interconnect/", "interconnect"),
    ("memory/", "memory"),
    ("gpu/dma.py", "gpu.dma"),
    ("gpu/", "gpu.gemm"),
    ("t3/", "t3"),
    ("collectives/", "collectives"),
    ("policy/", "policy"),
    ("faults/", "faults"),
    ("resilience/", "resilience"),
    ("obs/", "obs"),
    ("trace/", "trace"),
    ("analysis/trace.py", "trace"),
    ("analysis/", "experiments"),
    ("experiments/", "experiments"),
    ("models/", "experiments"),
    ("surrogate/", "experiments"),
    ("config.py", "experiments"),
    ("units.py", "experiments"),
    ("__init__.py", "experiments"),
)

#: classes whose methods belong to another layer than their file's: the
#: link pipe lives in the engine's primitives module but models the
#: interconnect.
CLASS_OVERRIDES: Dict[str, Dict[str, str]] = {
    "sim/primitives.py": {"Pipe": "interconnect"},
}

#: engine functions that run the event loop; their Python callees are the
#: dispatched callbacks.
_LOOP_MODULE = "sim/engine.py"
_LOOP_MARKERS = ("run", "step", "fire")

#: cProfile's labels for resuming a generator.
_RESUME_BUILTINS = ("<method 'send' of 'generator' objects>",
                    "<method 'throw' of 'generator' objects>")

Func = Tuple[str, int, str]


def rule_layer(rel_path: str) -> Optional[str]:
    """The layer of a file given by its path under ``src/repro``."""
    for prefix, layer in LAYER_RULES:
        if rel_path == prefix or (prefix.endswith("/")
                                  and rel_path.startswith(prefix)):
            return layer
    return None


def unmapped_files(repro_root: pathlib.Path) -> List[str]:
    """Python files under ``repro_root`` that no rule maps."""
    return sorted(
        rel for rel in (path.relative_to(repro_root).as_posix()
                        for path in repro_root.rglob("*.py"))
        if rule_layer(rel) is None)


class LayerMap:
    """Resolves a cProfile function label to its layer."""

    def __init__(self, repro_root: pathlib.Path):
        self.root = str(repro_root.resolve()) + "/"
        self._spans: Dict[str, List[Tuple[int, int, str]]] = {}
        for rel, classes in CLASS_OVERRIDES.items():
            source = (repro_root / rel).read_text()
            self._spans[rel] = [
                (node.lineno, node.end_lineno, classes[node.name])
                for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name in classes]
        self._cache: Dict[Tuple[str, int], Optional[str]] = {}

    def relpath(self, filename: str) -> Optional[str]:
        if filename.startswith(self.root):
            return filename[len(self.root):]
        return None

    def layer(self, func: Func) -> Optional[str]:
        """The layer of a profiled function, or None outside src/repro."""
        key = (func[0], func[1])
        if key not in self._cache:
            rel = self.relpath(func[0])
            layer = rule_layer(rel) if rel is not None else None
            for start, end, override in self._spans.get(rel, ()):
                if start <= func[1] <= end:
                    layer = override
            self._cache[key] = layer
        return self._cache[key]


def _charge_shares(func: Func, stats: dict, layers: LayerMap,
                   memo: Dict[Func, Dict[str, float]],
                   visiting: set) -> Dict[str, float]:
    """Fractions of ``func``'s self time owed by each layer."""
    own = layers.layer(func)
    if own is not None:
        return {own: 1.0}
    if func in memo:
        return memo[func]
    if func in visiting or func not in stats:
        return {}
    visiting.add(func)
    callers = stats[func][4]
    weights = {caller: entry[2] for caller, entry in callers.items()}
    total = sum(weights.values())
    if total <= 0:
        weights = {caller: entry[0] for caller, entry in callers.items()}
        total = sum(weights.values())
    shares: Dict[str, float] = {}
    for caller, weight in weights.items():
        if weight <= 0:
            continue
        for layer, share in _charge_shares(caller, stats, layers, memo,
                                           visiting).items():
            shares[layer] = shares.get(layer, 0.0) + share * weight / total
    visiting.discard(func)
    memo[func] = shares
    return shares


def build_ledger(stats: dict, layers: LayerMap) -> Dict[str, object]:
    """Group ``pstats``-style ``stats`` into the per-layer ledger.

    Returns ``{"self_s": {L: s}, "calls": {L: n}, "dispatches": {L: n},
    "total_s": s}``, every layer of :data:`LAYERS` present; ``total_s`` is
    all profiled time, charged to a layer or not.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    dispatches = {layer: 0 for layer in LAYERS}
    memo: Dict[Func, Dict[str, float]] = {}
    total = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total += tt
        own = layers.layer(func)
        if own is not None:
            self_s[own] += tt
            calls[own] += nc
            continue
        for layer, share in _charge_shares(func, stats, layers, memo,
                                           set()).items():
            self_s[layer] += tt * share

    loops = {func for func in stats
             if layers.relpath(func[0]) == _LOOP_MODULE
             and any(mark in func[2] for mark in _LOOP_MARKERS)}
    resume_builtins = {func for func in stats
                       if func[0] == "~" and func[2] in _RESUME_BUILTINS}
    resumers = {caller for func in resume_builtins
                for caller in stats[func][4]}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if func[0] == "~" or func in loops or func in resumers:
            continue
        landed = sum(entry[0] for caller, entry in callers.items()
                     if caller in loops or caller in resume_builtins)
        if landed:
            # A callback outside src/repro counts against the engine.
            dispatches[layers.layer(func) or "sim"] += landed
    return {"self_s": self_s, "calls": calls, "dispatches": dispatches,
            "total_s": total}


def per_layer_names() -> List[str]:
    """The ledger's metric names, in reporting order."""
    return [f"{layer}.{kind}" for kind in ("self_s", "calls", "dispatches")
            for layer in LAYERS]


def flatten(ledger: Dict[str, object], ref_factor: float) -> Dict[str, float]:
    """Ledger as ``{"L.kind": value}``; self times scaled to reference s."""
    flat: Dict[str, float] = {}
    for kind in ("self_s", "calls", "dispatches"):
        for layer, value in ledger[kind].items():
            flat[f"{layer}.{kind}"] = (value * ref_factor
                                      if kind == "self_s" else value)
    return flat
