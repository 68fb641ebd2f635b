"""Recovery degradation timeline: crash marks over windowed tail latency.

The question the serving workload exists to answer (ROADMAP item 1,
LLFT in PAPERS.md): when a node fails, *how far does the tail degrade
and how fast does it re-converge*? This module overlays the recovery
anatomy (per-incarnation detect/restore/handshake/replay phase
records) on the windowed p99 of the report's ``wlat`` records, and
measures the blast radius as
**windows-to-SLO-reconvergence**: the number of windows after the crash
window until the windowed p99 drops back under the objective's
threshold and stays there for the rest of the run.

Everything operates on (loaded) run-report dicts, so the timeline
renders identically from a live run (``repro observe``) and from a
committed artifact (``repro report``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.render import ascii_series, format_duration

from repro.observe.slo.engine import Objective, cluster_wlats

__all__ = ["build_timeline", "reconvergence", "render_timeline"]

#: recovery phases overlaid on the timeline, in execution order
PHASES = ("detect", "restore", "handshake", "replay")


def build_timeline(
    report: Dict[str, Any], metric: str = "lat.request"
) -> Optional[Dict[str, Any]]:
    """Fold a run report's ``wlat`` + ``recovery`` records into a timeline.

    The timeline holds the metric's ``wlat`` records themselves, in
    window order. Returns None when the report carries none (windowing
    disabled).
    """
    wlats = cluster_wlats(report, metric)
    if not wlats:
        return None
    window_s = float(wlats[0]["window_s"])
    marks: List[Dict[str, Any]] = []
    for rec in report.get("recoveries", ()):
        crash_t = float(rec["crash_time"])
        live_t = crash_t + float(rec["total"])
        marks.append(
            {
                "pid": int(rec.get("pid", -1)),
                "crash_time": crash_t,
                "live_time": live_t,
                "crash_window": int(crash_t // window_s),
                "live_window": int(live_t // window_s),
                "total": float(rec["total"]),
                "phases": {ph: float(rec.get(ph, 0.0)) for ph in PHASES},
                "replica_fetches": int(rec.get("replica_fetches", 0)),
            }
        )
    marks.sort(key=lambda m: m["crash_time"])
    return {"metric": metric, "window_s": window_s, "wlats": wlats, "marks": marks}


def reconvergence(
    timeline: Dict[str, Any], objective: Objective
) -> List[Dict[str, Any]]:
    """Windows-to-SLO-reconvergence for every crash on the timeline.

    For each crash mark: the first window at or after the crash window
    from which *every* remaining window's p99 sits at or under the
    objective's threshold. ``windows`` is that distance from the crash
    window; None means the run ended still out of SLO (blast radius
    exceeded the observation horizon).
    """
    out: List[Dict[str, Any]] = []
    for mark in timeline["marks"]:
        tail = [s for s in timeline["wlats"] if s["window"] >= mark["crash_window"]]
        reconverged: Optional[int] = None
        for i, s in enumerate(tail):
            if all(t["p99"] <= objective.threshold_s for t in tail[i:]):
                reconverged = s["window"]
                break
        out.append(
            {
                "pid": mark["pid"],
                "crash_window": mark["crash_window"],
                "reconverged_window": reconverged,
                "windows": (
                    reconverged - mark["crash_window"]
                    if reconverged is not None
                    else None
                ),
            }
        )
    return out


def render_timeline(
    timeline: Dict[str, Any], objective: Optional[Objective] = None
) -> str:
    """ASCII degradation timeline: p99/p50 chart + crash/recovery marks."""
    metric = timeline["metric"]
    window_s = timeline["window_s"]
    title = (
        f"degradation timeline — {metric} per "
        f"{format_duration(window_s)} window"
    )
    chart = ascii_series(
        title,
        {
            "p99": [(s["t0"], s["p99"]) for s in timeline["wlats"]],
            "p50": [(s["t0"], s["p50"]) for s in timeline["wlats"]],
        },
        xlabel="s",
        ylabel="s",
        window_s=window_s,
    )
    lines = [chart]
    for mark in timeline["marks"]:
        phases = ", ".join(
            f"{ph} {format_duration(mark['phases'][ph])}"
            for ph in PHASES
            if mark["phases"].get(ph)
        )
        extra = (
            f"; {mark['replica_fetches']} replica fetch(es)"
            if mark["replica_fetches"]
            else ""
        )
        lines.append(
            f"crash: p{mark['pid']} down at {format_duration(mark['crash_time'])}"
            f" (window {mark['crash_window']}), live again at "
            f"{format_duration(mark['live_time'])} (window "
            f"{mark['live_window']}) — {phases}{extra}"
        )
    if objective is not None and timeline["marks"]:
        for rec in reconvergence(timeline, objective):
            if rec["windows"] is None:
                lines.append(
                    f"SLO {objective.spec}: p{rec['pid']}'s blast radius did "
                    "NOT reconverge within the run"
                )
            else:
                lines.append(
                    f"SLO {objective.spec}: reconverged {rec['windows']} "
                    f"window(s) after p{rec['pid']}'s crash "
                    f"(window {rec['reconverged_window']})"
                )
    if not timeline["marks"]:
        lines.append("(failure-free run: no crash marks)")
    return "\n".join(lines)
