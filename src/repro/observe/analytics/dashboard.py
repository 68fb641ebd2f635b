"""The unified ``repro report`` dashboard: ASCII and HTML renderings.

:func:`build_dashboard` folds loaded :class:`Artifact` records into one
summary structure; :func:`render_dashboard` renders it as plain text and
:func:`render_html` as a standalone dependency-free HTML page (the same
tables inside ``<pre>`` blocks, with a status banner). Both are pure
functions of the artifact set — the dashboard never touches a cluster,
so it can run against committed artifacts in CI.

Status discipline: the dashboard is *green* only when every artifact
parsed and validated clean, no sweep reported failure, and no flight
record is present (a flight record only exists because an invariant
tripped).
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List

from repro.faultinject.campaign import render_recovery_by_class
from repro.observe.registry import CLUSTER_NODE
from repro.observe.report import latency_table, slo_sections
from repro.render import Table

from repro.observe.analytics.aggregate import Artifact

__all__ = ["build_dashboard", "render_dashboard", "render_html"]


def build_dashboard(artifacts: List[Artifact]) -> Dict[str, Any]:
    """Fold artifacts into the dashboard summary structure."""
    malformed = [a for a in artifacts if not a.ok]
    sweep_failures = [
        a for a in artifacts
        if a.kind == "sweep" and a.ok and not a.data.get("ok", False)
    ]
    flights = [a for a in artifacts if a.kind == "flight" and a.ok]
    return {
        "artifacts": artifacts,
        "malformed": malformed,
        "sweep_failures": sweep_failures,
        "flights": flights,
        "ok": not (malformed or sweep_failures or flights),
    }


# ---------------------------------------------------------------------------
# section renderers (each returns a block of text, or "" to skip)
# ---------------------------------------------------------------------------
def _inventory(dash: Dict[str, Any]) -> str:
    table = Table("artifact inventory", ["kind", "file", "status"])
    for a in dash["artifacts"]:
        status = "ok" if a.ok else f"MALFORMED: {a.errors[0]}"
        table.add(a.kind, a.path, status)
    return table.render()


def _observe_sections(dash: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for a in dash["artifacts"]:
        if a.kind != "observe" or not a.ok:
            continue
        lats = [
            rec for rec in a.data.get("lats", ())
            if rec["node"] == CLUSTER_NODE and rec.get("count")
        ]
        if lats:
            app = a.data["header"].get("app", a.name)
            out.append(
                latency_table(
                    lats, title=f"{app}: tail latency by op class (cluster)"
                ).render()
            )
        # the degradation timeline (windowed p50/p99
        # with crash/recovery marks) and SLO burn-rate verdicts render
        # exactly as `repro observe` printed them at collection time
        out.extend(slo_sections(a.data))
    return out


def _sweep_sections(dash: Dict[str, Any]) -> List[str]:
    out: List[str] = []
    for a in dash["artifacts"]:
        if a.kind != "sweep" or not a.ok:
            continue
        d = a.data
        outcomes = ", ".join(
            f"{k}={v}" for k, v in sorted(d.get("outcomes", {}).items())
        )
        verdict = "OK" if d.get("ok") else "FAILED"
        lines = [
            f"{a.name}: {d.get('app', '?')} sweep, faults={d.get('faults')}, "
            f"schema v{d.get('schema')} — {verdict} ({outcomes})"
        ]
        if d["recovery_by_class"]:
            lines.append(render_recovery_by_class(d["recovery_by_class"]))
        out.append("\n".join(lines))
    return out


def _trace_section(dash: Dict[str, Any]) -> str:
    rows = []
    for a in dash["artifacts"]:
        if a.kind != "trace" or not a.ok:
            continue
        events = a.data.get("traceEvents", ())
        spans = sum(1 for e in events if e.get("ph") == "X")
        flows = sum(1 for e in events if e.get("ph") == "s")
        nodes = len({e.get("pid") for e in events if e.get("ph") == "X"})
        rows.append((a.name, nodes, spans, flows))
    if not rows:
        return ""
    table = Table(
        "span traces", ["file", "nodes", "spans", "message flows"]
    )
    for row in rows:
        table.add(*row)
    return table.render()


def _flight_section(dash: Dict[str, Any]) -> str:
    if not dash["flights"]:
        return ""
    table = Table(
        "crash flight records (invariant violations!)",
        ["file", "reason", "virtual time", "violations"],
    )
    for a in dash["flights"]:
        d = a.data
        table.add(
            a.name, d.get("reason", "?"), f"{d.get('time', 0):.6f} s",
            len(d.get("violations", ())),
        )
    return table.render()


def _verdict(dash: Dict[str, Any]) -> str:
    if dash["ok"]:
        return "REPORT OK: all artifacts valid"
    problems: List[str] = []
    for a in dash["malformed"]:
        problems.append(f"malformed {a.kind} artifact {a.path}: {a.errors[0]}")
    for a in dash["sweep_failures"]:
        problems.append(f"crash sweep {a.name} reported failure")
    for a in dash["flights"]:
        problems.append(
            f"flight record {a.name} present ({a.data.get('reason', '?')})"
        )
    return "REPORT FAILED:\n" + "\n".join(f"  - {p}" for p in problems)


def _sections(dash: Dict[str, Any]) -> List[str]:
    """Every non-empty section, in the order both renderings show them."""
    return [
        _inventory(dash),
        *_observe_sections(dash),
        *_sweep_sections(dash),
        *filter(None, (_trace_section(dash), _flight_section(dash))),
        _verdict(dash),
    ]


def render_dashboard(dash: Dict[str, Any]) -> str:
    """The unified analytics dashboard as plain text."""
    title = "repro analytics dashboard"
    return "\n\n".join([f"{title}\n{'#' * len(title)}", *_sections(dash)])


def render_html(dash: Dict[str, Any]) -> str:
    """The same dashboard as one self-contained HTML page."""
    banner = "ok" if dash["ok"] else "failed"
    body = "\n".join(f"<pre>{_html.escape(b)}</pre>" for b in _sections(dash))
    color = "#2a7" if dash["ok"] else "#c33"
    return (
        "<!DOCTYPE html>\n"
        "<html><head><meta charset='utf-8'>"
        "<title>repro analytics dashboard</title>"
        "<style>"
        "body{font-family:monospace;margin:2em;background:#fafafa}"
        "pre{background:#fff;border:1px solid #ddd;padding:1em;"
        "overflow-x:auto}"
        f".banner{{color:#fff;background:{color};padding:.5em 1em;"
        "font-weight:bold}"
        "</style></head><body>"
        f"<div class='banner'>repro analytics dashboard — {banner}</div>\n"
        f"{body}\n"
        "</body></html>\n"
    )
