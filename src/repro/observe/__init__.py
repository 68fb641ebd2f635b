"""Unified observability layer: metrics registry, sampler and run reports.

See DESIGN.md §7. Typical use::

    from repro.observe import ClusterObserver, build_report, write_jsonl

    cluster = DsmCluster(..., ft=True)
    obs = ClusterObserver(cluster, interval=1e-3)   # virtual-time cadence
    result = cluster.run(app)
    obs.sample()                                    # final snapshot
    report = build_report(obs.registry, {"app": "counter"}, result)
    write_jsonl("run.jsonl", report)
"""

from repro.lazy import lazy_exports

_MONITOR = "repro.observe.invariants.monitor"
_RECORDER = "repro.observe.invariants.recorder"
_REPORT = "repro.observe.report"
_SLO = "repro.observe.slo.engine"

# each name resolves on first access, so an observed run compiles the
# invariant monitor or the SLO engine only when it uses them
_EXPORTS = {
    "INVARIANTS": _MONITOR,
    "InvariantMonitor": _MONITOR,
    "render_flight_record": _RECORDER,
    "validate_flight_record": _RECORDER,
    "write_flight_record": _RECORDER,
    "ClusterObserver": "repro.observe.observer",
    "MetricsRegistry": "repro.observe.registry",
    "build_report": _REPORT,
    "render_report": _REPORT,
    "validate_report": _REPORT,
    "write_jsonl": _REPORT,
    "evaluate_report_slos": _SLO,
    "parse_slo": _SLO,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
