"""Causal span tracing: span DAG + critical path + Perfetto export.

See DESIGN.md §7.5. Typical use::

    from repro.observe.tracing import SpanTracer, compute_critical_path

    cluster = DsmCluster(..., ft=True)
    tracer = SpanTracer(cluster)        # attach BEFORE run
    result = cluster.run(app)
    assert not tracer.validate()        # DAG well-formed
    path = compute_critical_path(tracer)
    json.dump(to_chrome_trace(tracer), open("trace.json", "w"))
"""

from repro.observe.tracing.critpath import (
    CritSegment,
    compute_critical_path,
    node_time_totals,
    per_cause_totals,
    reconcile_with_time_stats,
    render_critpath_report,
    worst_lock_chains,
)
from repro.observe.tracing.export import to_chrome_trace
from repro.observe.tracing.spans import (
    OP_KINDS,
    WAIT_KINDS,
    CausalEdge,
    Span,
    SpanTracer,
)

__all__ = [
    "CausalEdge",
    "CritSegment",
    "OP_KINDS",
    "Span",
    "SpanTracer",
    "WAIT_KINDS",
    "compute_critical_path",
    "node_time_totals",
    "per_cause_totals",
    "reconcile_with_time_stats",
    "render_critpath_report",
    "to_chrome_trace",
    "worst_lock_chains",
]
