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

from repro.lazy import lazy_exports

_CRITPATH = "repro.observe.tracing.critpath"
_EXPORT = "repro.observe.tracing.export"
_SPANS = "repro.observe.tracing.spans"

_EXPORTS = {
    "CritSegment": _CRITPATH,
    "compute_critical_path": _CRITPATH,
    "node_time_totals": _CRITPATH,
    "per_cause_totals": _CRITPATH,
    "reconcile_with_time_stats": _CRITPATH,
    "render_critpath_report": _CRITPATH,
    "worst_lock_chains": _CRITPATH,
    "render_trace": _EXPORT,
    "to_chrome_trace": _EXPORT,
    "validate_trace": _EXPORT,
    "OP_KINDS": _SPANS,
    "WAIT_KINDS": _SPANS,
    "CausalEdge": _SPANS,
    "Span": _SPANS,
    "SpanTracer": _SPANS,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
    "render_trace",
    "to_chrome_trace",
    "validate_trace",
    "worst_lock_chains",
]
