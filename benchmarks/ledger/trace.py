"""The traced repetition: one ``cProfile.Profile`` folded into layers.

A deterministic profiler is a span per call, recorded from outside the
program, held in memory and folded when the run ends. Self time is
``tottime``, so a generator's resumptions are charged to the generator
and not to the engine that resumes it. A C builtin has no module of its
own: its time is credited to the module that *called* it, through the
profile's caller edges, so ``numpy`` kernels called from ``dsm/diff.py``
are ``dsm.diff``'s time. Builtins nobody in the profile called go to
``ext.stdlib``. The rows sum to the traced total exactly.

The layer of a function is its module under ``src/repro/``, with dots
(:func:`layer_of`); the declared layers are the ``<layer>.self_cal``
names in ``BENCHMARK.json``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable, Dict, Optional, Tuple

import numpy

#: modules that are tooling around the simulator, not part of a run
_TOOLING = ("metrics", "baselines", "harness", "render", "__main__")

_NUMPY_DIR = os.path.dirname(numpy.__file__) + os.sep
_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

FuncKey = Tuple[str, int, str]


def layer_of(rel: str) -> str:
    """Layer of a module given its path relative to ``src/repro/``."""
    parts = rel[: -len(".py")].split("/")
    package = parts[-1] == "__init__"
    if package:
        parts.pop()
    if parts[:1] == ["apps"]:
        return "apps"
    if parts[:1] == ["observe"] and len(parts) > 1 and parts[1] != "analytics":
        return "observe." + parts[1]
    if package or parts[0] in _TOOLING or parts[0] == "observe":
        return "harness"  # tooling, and package re-exports (import time only)
    if parts == ["dsm", "config"]:
        return "dsm.protocol"
    return ".".join(parts)


def _layer_of_file(path: str, repro_dir: str) -> str:
    if path.startswith(repro_dir):
        return layer_of(path[len(repro_dir):].replace(os.sep, "/"))
    if path.startswith(_LEDGER_DIR):
        return "harness"  # the benchmark's own taps and workload bodies
    if path.startswith(_NUMPY_DIR):
        return "ext.numpy"
    return "ext.stdlib"


def func_key(fn: Callable[..., Any]) -> FuncKey:
    """The profile's key for a Python function."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def run_traced(body: Callable[[], Any]) -> Tuple[Any, Dict[FuncKey, Any]]:
    """Run ``body`` under one profiler; return its result and raw stats."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = body()
    finally:
        prof.disable()
    return result, pstats.Stats(prof).stats  # type: ignore[attr-defined]


def fold(
    stats: Dict[FuncKey, Any], repro_dir: str, layers: Tuple[str, ...]
) -> Dict[str, Any]:
    """Fold raw profile stats into self seconds per declared layer.

    Raises if a function lands in a layer that is not declared, so a new
    module fails the run instead of vanishing into "other".
    """
    repro_dir = os.path.abspath(repro_dir) + os.sep
    rows = {layer: 0.0 for layer in layers}
    top: Dict[str, Dict[str, float]] = {layer: {} for layer in layers}

    def credit(layer: str, seconds: float, label: Optional[str]) -> None:
        if layer not in rows:
            raise KeyError(f"undeclared layer {layer!r} ({label})")
        rows[layer] += seconds
        if label is not None:
            top[layer][label] = top[layer].get(label, 0.0) + seconds

    def of(func: FuncKey) -> str:
        if func[0] == "~":
            return "ext.stdlib"
        return _layer_of_file(func[0], repro_dir)

    total = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        path, line, name = func
        if path != "~":
            label = f"{os.path.basename(path)}:{line}:{name}"
            credit(of(func), tt, label)
            continue
        edge_sum = 0.0
        for caller, (_n, _c, edge_tt, _e) in callers.items():
            credit(of(caller), edge_tt, None)
            edge_sum += edge_tt
        credit("ext.stdlib", tt - edge_sum, None)  # builtins nobody called
    return {
        "total_s": total,
        "layers": rows,
        "top": {
            layer: sorted(funcs.items(), key=lambda kv: -kv[1])[:5]
            for layer, funcs in top.items()
            if funcs
        },
    }


def ncalls(stats: Dict[FuncKey, Any], fn: Callable[..., Any]) -> int:
    """How many times the traced run called ``fn`` (0 if never)."""
    entry = stats.get(func_key(fn))
    return int(entry[1]) if entry is not None else 0
