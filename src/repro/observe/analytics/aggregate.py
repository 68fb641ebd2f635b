"""Cross-artifact aggregation for the ``repro report`` dashboard.

The repo's pipelines each leave one kind of artifact in ``benchmarks/``:

* ``OBSERVE_<app>.jsonl`` — run reports (series/latency records)
* ``TRACE_<app>.json``    — Chrome trace-event span DAGs
* ``SWEEP_<app>*.json``   — crash-sweep campaign summaries
* ``FLIGHT_<app>.json``   — invariant-monitor crash flight records

This module finds them, loads them through each pipeline's own reader/
validator, and normalizes the result into :class:`Artifact` records the
dashboard renders. Sniffing is by filename prefix first, then by
content shape, so renamed files still classify. Loading is read-only
and never raises for a bad artifact: malformed files come back as
``Artifact`` records with ``errors`` set (the CLI turns those into a
nonzero exit).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ARTIFACT_KINDS",
    "Artifact",
    "discover_artifacts",
    "load_artifact",
    "sniff_kind",
]

ARTIFACT_KINDS = ("observe", "trace", "sweep", "flight")

#: filename prefix -> kind (first match on the basename wins)
_PREFIXES = (
    ("OBSERVE_", "observe"),
    ("TRACE_", "trace"),
    ("SWEEP_", "sweep"),
    ("FLIGHT_", "flight"),
)

#: glob-free discovery: a file is a candidate artifact iff its basename
#: carries a known prefix and a JSON-ish suffix
_SUFFIXES = (".json", ".jsonl")


@dataclass
class Artifact:
    """One loaded (or failed-to-load) artifact."""

    kind: str  # one of ARTIFACT_KINDS, or "unknown"
    path: str
    data: Optional[Dict[str, Any]] = None
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


def sniff_kind(path: str, data: Any = None) -> str:
    """Classify an artifact by filename prefix, else by content shape."""
    base = os.path.basename(path)
    for prefix, kind in _PREFIXES:
        if base.startswith(prefix):
            return kind
    if isinstance(data, dict):
        if data.get("record") == "header":
            return "observe"  # first line of a run-report JSONL
        if "traceEvents" in data:
            return "trace"
        if "points" in data and "outcomes" in data:
            return "sweep"
        if "violations" in data and "checks" in data:
            return "flight"
        if "header" in data and "series" in data:
            return "observe"
    return "unknown"


def discover_artifacts(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into the artifact files under them.

    Directories are walked recursively (``benchmarks/results`` holds
    the trace JSONs); only basenames with a known prefix and suffix are
    picked up, so paper-table ``.txt`` outputs and pytest files are
    ignored. Explicit file paths are always taken, even unrecognized
    ones — naming a file is an assertion it should parse, and the
    dashboard reports it malformed if it doesn't.
    """
    found: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, files in sorted(os.walk(p)):
                for f in sorted(files):
                    if not f.endswith(_SUFFIXES):
                        continue
                    if any(f.startswith(pre) for pre, _ in _PREFIXES):
                        found.append(os.path.join(root, f))
        else:
            found.append(p)
    # stable order: kind-major (ARTIFACT_KINDS order), then path
    order = {kind: i for i, kind in enumerate(ARTIFACT_KINDS)}
    found.sort(key=lambda p: (order.get(sniff_kind(p), len(order)), p))
    return found


# ---------------------------------------------------------------------------
# per-kind loading, through each pipeline's own reader/validator
# ---------------------------------------------------------------------------
def _load_observe(path: str) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    from repro.observe.report import load_jsonl, validate_report

    report = load_jsonl(path)
    require_ft = bool(report["header"].get("ft", False))
    return report, validate_report(report, require_ft=require_ft)


def _load_trace(path: str) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    with open(path) as fh:
        data = json.load(fh)
    errors: List[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents missing or not a list")
    else:
        for i, ev in enumerate(events):
            if not isinstance(ev, dict) or "ph" not in ev:
                errors.append(f"trace event {i} has no phase ('ph')")
                break
    return data, errors


def _load_sweep(path: str) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    from repro.faultinject.campaign import validate_sweep

    with open(path) as fh:
        data = json.load(fh)
    return data, validate_sweep(data)


def _load_flight(path: str) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    from repro.observe.invariants import validate_flight_record

    with open(path) as fh:
        data = json.load(fh)
    return data, validate_flight_record(data)


_LOADERS = {
    "observe": _load_observe,
    "trace": _load_trace,
    "sweep": _load_sweep,
    "flight": _load_flight,
}


def load_artifact(path: str) -> Artifact:
    """Load one artifact file; parse/validation failures land in
    ``errors`` instead of raising."""
    kind = sniff_kind(path)
    try:
        if kind == "unknown":
            # explicit file with an unrecognized name: sniff the content
            with open(path) as fh:
                first = fh.read(1 << 20)
            data = json.loads(first.splitlines()[0] if path.endswith(".jsonl")
                              else first)
            kind = sniff_kind(path, data)
            if kind == "unknown":
                return Artifact("unknown", path,
                                errors=["unrecognized artifact shape"])
        data, errors = _LOADERS[kind](path)
        return Artifact(kind, path, data, errors)
    except FileNotFoundError:
        return Artifact(kind, path, errors=["file not found"])
    except (json.JSONDecodeError, ValueError, IndexError) as exc:
        return Artifact(kind, path, errors=[f"unparseable: {exc}"])

