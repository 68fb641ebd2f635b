"""Run reports: JSONL export and plain-text rendering of observed runs.

A *run report* is the structured outcome of one observed cluster run:
the registry's per-node time series, latency distributions and
end-of-run totals. It round-trips through JSONL — one self-describing
record per line — so CI can parse it with nothing but ``json.loads``:

* ``{"record": "header", ...}``   — run metadata (first line)
* ``{"record": "series", ...}``   — one per (metric, node) series
* ``{"record": "lat", ...}``      — one per (op class, node) percentile
  distribution, plus one cluster-merged record per op class
  (``node = -1``); carries both summary percentiles and the raw log
  buckets so readers can re-merge across runs
* ``{"record": "wlat", ...}``     — one per histogram of the registry's
  window table: an (op class, fixed virtual-time window) pair, cluster-
  wide, carrying the window index/bounds plus the same log-bucket
  payload as ``lat``
* ``{"record": "recovery", ...}`` — one per completed recovery: the pid
  plus the phase anatomy (detect/restore/handshake/replay/total), the
  degradation timeline's crash marks
* ``{"record": "slo", ...}``      — one per evaluated objective: the
  spec, per-window burn rates and any burn-rule violations
* ``{"record": "summary", ...}``  — end-of-run totals (last line)

The header's ``schema`` is :data:`REPORT_SCHEMA`; :func:`load_jsonl`
rejects a report written at any other (re-record it, there is no
converter). Schema 4 dropped schema 3's ``hist`` records: fixed-bucket
copies of the ``lat.fetch``/``lat.acquire``/``lat.barrier``
distributions.

Rendering reuses the repo's ASCII reporting layer
(:mod:`repro.render`), so Figure 4-style curves and overview
tables come out of the same pipeline the paper harness uses.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.render import (
    Table,
    ascii_histogram,
    ascii_series,
    format_bytes,
    format_duration,
)
from repro.observe.registry import CLUSTER_NODE, MetricsRegistry

__all__ = [
    "build_report",
    "write_jsonl",
    "load_jsonl",
    "validate_report",
    "render_report",
    "KEY_SERIES",
    "KEY_LATENCIES",
]

#: the one report schema written and read
REPORT_SCHEMA = 4

#: series a healthy run report must contain (CI smoke asserts these):
#: per-node diff traffic, and for an FT run (``header["ft"]``) the
#: stable+volatile log size and the retained checkpoint count (the
#: paper's bounded-window claim) over virtual time; the ``ft.replica_*``
#: pair (buddy-held replica bytes, own replication lag in checkpoints)
#: is required only of replication-enabled runs (``header["replicate"]``)
KEY_SERIES = (
    "ft.log_volatile_bytes",
    "ft.log_saved_bytes",
    "dsm.diff_bytes_sent",
    "ft.ckpts_retained",
    "ft.replica_bytes",
    "ft.replica_lag",
)

#: latency op classes a report must carry records for (the
#: observer pre-creates these three, so they exist — possibly with
#: count 0 — in every observed run; ckpt/replica/recovery classes appear
#: only when the corresponding events happened)
KEY_LATENCIES = ("lat.fetch", "lat.acquire", "lat.barrier")

#: fields every ``lat`` record must carry to be renderable/mergeable
_LAT_FIELDS = ("metric", "node", "count", "p50", "p90", "p99", "p999",
               "max", "base", "growth", "buckets")

#: fields every ``wlat`` record additionally carries (window geometry)
_WLAT_FIELDS = ("metric", "node", "window", "t0", "t1", "window_s",
                "count", "buckets")

#: fields every ``recovery`` record must carry to anchor a crash mark
_RECOVERY_FIELDS = ("pid", "crash_time", "total")


def build_report(
    registry: MetricsRegistry,
    meta: Dict[str, Any],
    result: Any = None,
    recoveries: Any = None,
    slos: Any = None,
) -> Dict[str, Any]:
    """Assemble the structured run report from a sampled registry.

    ``meta`` carries run identity (app, procs, ft, cadence); ``result``
    is the cluster's :class:`~repro.cluster.RunResult` (optional — unit
    tests build reports from bare registries). ``recoveries`` is the
    observer's ``recovery_records`` list (crash runs); ``slos`` a list
    of :class:`~repro.observe.slo.engine.SloResult` when the run evaluated
    objectives. Windowed (``wlat``) records are one per histogram of the
    registry's window table (``node = -1``), so report size is bounded
    at ``windows x op classes`` regardless of cluster size.

    A report is a read-only value over the registry: a series' ``points``
    is a :class:`~repro.observe.registry.Points` view of its columns, as
    long as they were at this build, and ``wlat`` records are the ones an
    earlier build over the same observations returned. Only
    :func:`write_jsonl` makes ``[x, v]`` lists, one series at a time.
    """
    series = [
        {"record": "series", "metric": name, "node": node, "points": points}
        for (name, node), points in registry.series.items()
    ]
    lats = []
    for name in registry.latency_names():
        per_node = registry.latencies_by_name(name)
        for node, h in per_node.items():
            lats.append(
                {"record": "lat", "metric": name, "node": node, **h.to_dict()}
            )
        if CLUSTER_NODE not in per_node:
            merged = registry.merged_latency(name)
            if merged is not None:
                lats.append(
                    {
                        "record": "lat",
                        "metric": name,
                        "node": CLUSTER_NODE,
                        **merged.to_dict(),
                    }
                )
    wlats: List[Dict[str, Any]] = []
    window_s = registry.window_s
    for name in registry.latency_names():
        table = registry.windows(name)
        # every observation bumps a window's count, so while the op
        # class's total stands an earlier build's records hold
        wlats += registry.derived(
            ("wlat", name), sum(h.count for h in table.values()),
            lambda: [
                {"record": "wlat", "metric": name, "node": CLUSTER_NODE,
                 "window": w, "t0": w * window_s, "t1": (w + 1) * window_s,
                 "window_s": window_s, **h.to_dict()}
                for w, h in sorted(table.items())
            ],
        )
    recovery_recs = [
        {"record": "recovery", **rec} for rec in (recoveries or ())
    ]
    slo_recs = [{"record": "slo", **s.to_dict()} for s in (slos or ())]
    summary: Dict[str, Any] = {"record": "summary", "samples": registry.samples_taken}
    if result is not None:
        summary.update(
            virtual_time=result.wall_time,
            total_msgs=result.traffic.total_msgs,
            total_bytes=result.traffic.total_bytes,
            ft_bytes=result.traffic.ft_bytes,
            crashes=result.crashes,
            recoveries=result.recoveries,
            checkpoints=sum(
                s.checkpoints_taken for s in result.ft_stats if s is not None
            ),
        )
    header = {"record": "header", "schema": REPORT_SCHEMA, **meta}
    if wlats and "window_s" not in header:
        header["window_s"] = window_s
    return {
        "header": header,
        "series": series,
        "lats": lats,
        "wlats": wlats,
        "recoveries": recovery_recs,
        "slos": slo_recs,
        "summary": summary,
    }


def write_jsonl(path: str, report: Dict[str, Any]) -> None:
    records = [report["header"], *report["series"]]
    for key in ("lats", "wlats", "recoveries", "slos"):
        records += report.get(key, ())
    records.append(report["summary"])
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            # default=: a series' view becomes pairs here, for its own line
            fh.write(json.dumps(rec, sort_keys=True, default=list) + "\n")


def load_jsonl(path: str) -> Dict[str, Any]:
    """Parse a JSONL run report into the structured form."""
    out: Dict[str, Any] = {
        "header": None, "series": [], "lats": [], "wlats": [],
        "recoveries": [], "slos": [], "summary": None,
    }
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("record")
            if kind == "header":
                schema = rec.get("schema", 1)  # the first reports had no key
                if schema != REPORT_SCHEMA:
                    raise ValueError(
                        f"unsupported run-report schema {schema!r}: re-record "
                        "with `repro observe`"
                    )
                out["header"] = rec
            elif kind == "series":
                out["series"].append(rec)
            elif kind == "lat":
                out["lats"].append(rec)
            elif kind == "wlat":
                out["wlats"].append(rec)
            elif kind == "recovery":
                out["recoveries"].append(rec)
            elif kind == "slo":
                out["slos"].append(rec)
            elif kind == "summary":
                out["summary"] = rec
            else:
                raise ValueError(f"unknown run-report record: {rec!r}")
    return out


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Sanity-check a (loaded) run report; returns human-readable errors.
    Its header says which key series it must carry (``ft``,
    ``replicate``)."""
    errors: List[str] = []
    header = report.get("header") or {}
    if not header:
        errors.append("missing header record")
    if report.get("summary") is None:
        errors.append("missing summary record")
    by_metric: Dict[str, List[Dict[str, Any]]] = {}
    for rec in report.get("series", ()):
        by_metric.setdefault(rec["metric"], []).append(rec)
    for name in KEY_SERIES:
        if name.startswith("ft.") and not header.get("ft"):
            continue
        if name.startswith("ft.replica") and not header.get("replicate"):
            continue
        recs = by_metric.get(name)
        if not recs:
            errors.append(f"missing key series {name!r}")
            continue
        if all(not rec["points"] for rec in recs):
            errors.append(f"key series {name!r} is empty on every node")
    lat_metrics = set()
    for i, rec in enumerate(report.get("lats", ())):
        missing = [f for f in _LAT_FIELDS if f not in rec]
        if missing:
            errors.append(f"lat record {i} missing fields {missing}")
            continue
        lat_metrics.add(rec["metric"])
    for name in KEY_LATENCIES:
        if name not in lat_metrics:
            errors.append(f"missing latency op class {name!r}")
    for i, rec in enumerate(report.get("wlats", ())):
        missing = [f for f in _WLAT_FIELDS if f not in rec]
        if missing:
            errors.append(f"wlat record {i} missing fields {missing}")
    if header.get("window_s") and not report.get("wlats"):
        errors.append("header declares windowed collection but no wlat records")
    for i, rec in enumerate(report.get("recoveries", ())):
        missing = [f for f in _RECOVERY_FIELDS if f not in rec]
        if missing:
            errors.append(f"recovery record {i} missing fields {missing}")
    return errors


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _latency_sections(report: Dict[str, Any]) -> List[str]:
    """The tail-latency table, one row per (op class, node) with
    observations, the cluster-merged row first per class; then the
    busiest class's distribution."""
    lats = report.get("lats") or []
    if not any(rec.get("count") for rec in lats):
        return []
    table = Table(
        "latency percentiles (virtual time)",
        ["op class", "node", "count", "p50", "p90", "p99", "p999", "max"],
        note="cluster rows merge every node's log-bucket histogram; "
        "estimates carry the engine's documented relative-error bound",
    )
    ordered = sorted(
        (rec for rec in lats if rec.get("count")),
        key=lambda r: (r["metric"], r["node"] != CLUSTER_NODE, r["node"]),
    )
    for rec in ordered:
        node = "cluster" if rec["node"] == CLUSTER_NODE else f"p{rec['node']}"
        table.add(
            rec["metric"],
            node,
            rec["count"],
            *(format_duration(rec[k]) for k in ("p50", "p90", "p99", "p999",
                                                "max")),
        )
    parts = [table.render()]
    # one distribution chart for the busiest op class (cluster-merged)
    merged = [r for r in lats if r["node"] == CLUSTER_NODE and r.get("count")]
    if merged:
        busiest = max(merged, key=lambda r: r["count"])
        buckets = [
            (format_duration(busiest["base"] * busiest["growth"] ** i), c)
            for i, c in busiest.get("buckets", ())
        ]
        if busiest.get("zero"):
            buckets.insert(0, ("0", busiest["zero"]))
        parts.append(
            ascii_histogram(
                f"{busiest['metric']} distribution (cluster, "
                f"{busiest['count']} ops)",
                buckets,
            )
        )
    return parts


def _timeline_metric(report: Dict[str, Any]) -> str:
    """Op class for the degradation timeline: the serving app's request
    latency when present, else the busiest windowed class."""
    counts: Dict[str, int] = {}
    for rec in report.get("wlats", ()):
        if rec.get("node", -1) == CLUSTER_NODE:
            counts[rec["metric"]] = counts.get(rec["metric"], 0) + int(
                rec.get("count", 0)
            )
    if "lat.request" in counts:
        return "lat.request"
    return max(counts, key=counts.get) if counts else ""


def _slo_sections(report: Dict[str, Any]) -> List[str]:
    """Degradation timeline + SLO burn-rate sections."""
    # lazy: repro.observe.slo is an optional consumer of this module's
    # report dicts, not a load-time dependency
    from repro.observe.slo import Objective, build_timeline, render_timeline

    parts: List[str] = []
    slos = report.get("slos") or []
    metric = _timeline_metric(report)
    if metric:
        timeline = build_timeline(report, metric=metric)
        objective = None
        for rec in slos:
            if rec.get("metric") == metric:
                objective = Objective(
                    rec["metric"],
                    float(rec["percentile"]),
                    float(rec["threshold_s"]),
                )
                break
        parts.append(render_timeline(timeline, objective))
    if slos:
        table = Table(
            "SLO burn-rate evaluation",
            ["objective", "windows", "worst burn", "violations", "status"],
            note="burn = (fraction over threshold) / error budget; a rule "
            "fires when long- and short-span burns both exceed its limit",
        )
        lines: List[str] = []
        for rec in slos:
            burns = [float(w.get("burn", 0.0)) for w in rec.get("per_window", ())]
            table.add(
                rec.get("spec", "?"),
                len(rec.get("per_window", ())),
                f"{max(burns, default=0.0):.2f}",
                len(rec.get("violations", ())),
                "OK" if rec.get("ok") else "VIOLATED",
            )
            for v in rec.get("violations", ()):
                lines.append(
                    f"SLO VIOLATION {rec.get('spec', '?')}: {v['rule']} rule "
                    f"at window {v['window']} (burn {v['long_burn']:.1f} over "
                    f"{v['long_windows']}w and {v['short_burn']:.1f} over "
                    f"{v['short_windows']}w, limit {v['max_burn']:g})"
                )
        parts.append(table.render())
        if lines:
            parts.append("\n".join(lines))
    return parts


def _node_series(report: Dict[str, Any], metric: str) -> Dict[str, Any]:
    return {
        "cluster" if rec["node"] == CLUSTER_NODE else f"p{rec['node']}": rec["points"]
        for rec in report["series"]
        if rec["metric"] == metric and rec["points"]
    }


def _last(points: List[Any]) -> float:
    return float(points[-1][1]) if points else 0.0


def render_report(report: Dict[str, Any]) -> str:
    """Plain-text run report: overview table + key series charts."""
    header = report.get("header") or {}
    summary = report.get("summary") or {}
    title = (
        f"repro observe — {header.get('app', '?')} on "
        f"{header.get('procs', '?')} simulated nodes"
    )
    parts: List[str] = []

    per_node: Dict[int, Dict[str, float]] = {}
    for rec in report["series"]:
        node = rec["node"]
        if node == CLUSTER_NODE:
            continue
        per_node.setdefault(node, {})[rec["metric"]] = _last(rec["points"])
    overview = Table(
        title,
        ["node", "fetches", "diff sent", "log volatile", "log stable",
         "ckpts", "trimmed"],
        note=(
            f"virtual time {summary.get('virtual_time', 0.0) * 1e3:.3f} ms, "
            f"{summary.get('total_msgs', 0)} msgs, "
            f"{summary.get('samples', 0)} samples"
        ),
    )
    for node in sorted(per_node):
        m = per_node[node]
        overview.add(
            f"p{node}",
            int(m.get("dsm.page_fetches", 0)),
            format_bytes(m.get("dsm.diff_bytes_sent", 0)),
            format_bytes(m.get("ft.log_volatile_bytes", 0)),
            format_bytes(m.get("ft.log_saved_bytes", 0)),
            int(m.get("ft.checkpoints_taken", 0)),
            format_bytes(m.get("ft.trim_diff_bytes", 0)),
        )
    parts.append(overview.render())

    charts = [
        ("ft.log_volatile_bytes", "log size (volatile) vs virtual time", "s", "bytes"),
        ("ft.replica_bytes", "buddy-held replica bytes vs virtual time", "s", "bytes"),
        ("ft.replica_lag", "replication lag vs virtual time", "s", "ckpts"),
        ("dsm.diff_bytes_sent", "diff traffic vs virtual time", "s", "bytes"),
        ("ft.log_disk_bytes", "stable log vs checkpoint number", "ckpt", "bytes"),
        ("sim.events_per_vsec", "simulator events per virtual second", "s", "ev/s"),
    ]
    for metric, chart_title, xlabel, ylabel in charts:
        series = _node_series(report, metric)
        if series:
            parts.append(
                ascii_series(chart_title, series, xlabel=xlabel, ylabel=ylabel)
            )

    parts.extend(_latency_sections(report))
    parts.extend(_slo_sections(report))
    return "\n\n".join(parts)
