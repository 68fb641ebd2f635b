"""Unified observability layer: metrics registry, sampler and run reports.

See DESIGN.md §7. Typical use::

    from repro.observe import ClusterObserver

    cluster = DsmCluster(..., ft=True)
    obs = ClusterObserver(cluster, interval=1e-3)   # virtual-time cadence
    result = cluster.run(app)
    obs.sample()                                    # final snapshot
    report = build_report(obs.registry, {"app": "counter"}, result)
    write_jsonl("run.jsonl", report)
"""

from repro.lazy import lazy_exports

_INVARIANTS = "repro.observe.invariants"
_LATENCY = "repro.observe.latency"
_OBSERVER = "repro.observe.observer"
_REGISTRY = "repro.observe.registry"
_REPORT = "repro.observe.report"
_SLO = "repro.observe.slo"
_TRACING = "repro.observe.tracing"

# each name resolves on first access (a subpackage resolves its own the
# same way), so an observed run does not compile the tracing package,
# the invariant monitor or the SLO timeline unless it uses them
_EXPORTS = {
    "INVARIANTS": _INVARIANTS,
    "InvariantMonitor": _INVARIANTS,
    "Violation": _INVARIANTS,
    "FlightRecorder": _INVARIANTS,
    "render_flight_record": _INVARIANTS,
    "validate_flight_record": _INVARIANTS,
    "write_flight_record": _INVARIANTS,
    "LatencyHistogram": _LATENCY,
    "exact_percentile": _LATENCY,
    "ClusterObserver": _OBSERVER,
    "CLUSTER_NODE": _REGISTRY,
    "Counter": _REGISTRY,
    "MetricsRegistry": _REGISTRY,
    "KEY_LATENCIES": _REPORT,
    "KEY_SERIES": _REPORT,
    "build_report": _REPORT,
    "load_jsonl": _REPORT,
    "render_report": _REPORT,
    "validate_report": _REPORT,
    "write_jsonl": _REPORT,
    "DEFAULT_RULES": _SLO,
    "BurnRule": _SLO,
    "Objective": _SLO,
    "SloResult": _SLO,
    "evaluate_report_slos": _SLO,
    "evaluate_slo": _SLO,
    "parse_slo": _SLO,
    "build_timeline": _SLO,
    "reconvergence": _SLO,
    "render_timeline": _SLO,
    "CausalEdge": _TRACING,
    "Span": _TRACING,
    "SpanTracer": _TRACING,
    "CritSegment": _TRACING,
    "compute_critical_path": _TRACING,
    "node_time_totals": _TRACING,
    "per_cause_totals": _TRACING,
    "reconcile_with_time_stats": _TRACING,
    "render_critpath_report": _TRACING,
    "worst_lock_chains": _TRACING,
    "to_chrome_trace": _TRACING,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BurnRule",
    "CLUSTER_NODE",
    "CausalEdge",
    "ClusterObserver",
    "Counter",
    "CritSegment",
    "DEFAULT_RULES",
    "FlightRecorder",
    "INVARIANTS",
    "InvariantMonitor",
    "KEY_LATENCIES",
    "KEY_SERIES",
    "LatencyHistogram",
    "MetricsRegistry",
    "Objective",
    "SloResult",
    "Span",
    "SpanTracer",
    "Violation",
    "build_report",
    "build_timeline",
    "compute_critical_path",
    "evaluate_report_slos",
    "evaluate_slo",
    "exact_percentile",
    "parse_slo",
    "reconvergence",
    "render_timeline",
    "load_jsonl",
    "node_time_totals",
    "per_cause_totals",
    "reconcile_with_time_stats",
    "render_critpath_report",
    "render_flight_record",
    "render_report",
    "to_chrome_trace",
    "validate_flight_record",
    "validate_report",
    "worst_lock_chains",
    "write_flight_record",
    "write_jsonl",
]
