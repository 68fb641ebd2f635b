"""Causal span tracing: span DAG + critical path + Perfetto export.

See DESIGN.md §7.5. Typical use::

    from repro.observe.tracing import (
        SpanTracer, compute_critical_path, to_chrome_trace,
    )

    cluster = DsmCluster(..., ft=True)
    tracer = SpanTracer(cluster)        # attach BEFORE run
    result = cluster.run(app)
    assert not tracer.validate()        # DAG well-formed
    path = compute_critical_path(tracer)
    json.dump(to_chrome_trace(tracer), open("trace.json", "w"))
"""

from repro.lazy import lazy_exports

_CRITPATH = "repro.observe.tracing.critpath"

_EXPORTS = {
    "compute_critical_path": _CRITPATH,
    "node_time_totals": _CRITPATH,
    "reconcile_with_time_stats": _CRITPATH,
    "render_critpath_report": _CRITPATH,
    "to_chrome_trace": "repro.observe.tracing.export",
    "SpanTracer": "repro.observe.tracing.spans",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
