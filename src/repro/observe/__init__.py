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

from repro.observe.invariants import (
    INVARIANTS,
    FlightRecorder,
    InvariantMonitor,
    Violation,
    render_flight_record,
    seed_violation,
    validate_flight_record,
    write_flight_record,
)
from repro.observe.latency import LatencyHistogram, exact_percentile
from repro.observe.observer import ClusterObserver
from repro.observe.registry import CLUSTER_NODE, Counter, MetricsRegistry
from repro.observe.report import (
    KEY_LATENCIES,
    KEY_SERIES,
    build_report,
    latency_table,
    load_jsonl,
    render_report,
    validate_report,
    write_jsonl,
)
from repro.observe.slo import (
    DEFAULT_RULES,
    BurnRule,
    Objective,
    SloResult,
    build_timeline,
    evaluate_report_slos,
    evaluate_slo,
    parse_slo,
    reconvergence,
    render_timeline,
)
from repro.observe.tracing import (
    CausalEdge,
    CritSegment,
    Span,
    SpanTracer,
    compute_critical_path,
    node_time_totals,
    per_cause_totals,
    reconcile_with_time_stats,
    render_critpath_report,
    to_chrome_trace,
    worst_lock_chains,
)

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
    "latency_table",
    "load_jsonl",
    "node_time_totals",
    "per_cause_totals",
    "reconcile_with_time_stats",
    "render_critpath_report",
    "render_flight_record",
    "render_report",
    "seed_violation",
    "to_chrome_trace",
    "validate_flight_record",
    "validate_report",
    "worst_lock_chains",
    "write_flight_record",
    "write_jsonl",
]
