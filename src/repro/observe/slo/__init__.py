"""Serving-oriented observability: SLOs and degradation over windowed tails.

Two pieces built for the open-loop session workload, both reading a run
report's ``wlat`` records (one per histogram of the registry's window
table, DESIGN.md §7.4):

* :mod:`.engine` — declarative latency objectives with multi-window
  burn-rate evaluation (the exit-nonzero SLO gate);
* :mod:`.timeline` — overlay crash/recovery-phase marks on the windowed
  p99 series and measure windows-to-SLO-reconvergence.
"""

from repro.lazy import lazy_exports

_ENGINE = "repro.observe.slo.engine"
_TIMELINE = "repro.observe.slo.timeline"

_EXPORTS = {
    "DEFAULT_RULES": _ENGINE,
    "BurnRule": _ENGINE,
    "Objective": _ENGINE,
    "SloResult": _ENGINE,
    "evaluate_report_slos": _ENGINE,
    "evaluate_slo": _ENGINE,
    "parse_duration": _ENGINE,
    "parse_slo": _ENGINE,
    "build_timeline": _TIMELINE,
    "reconvergence": _TIMELINE,
    "render_timeline": _TIMELINE,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BurnRule",
    "DEFAULT_RULES",
    "Objective",
    "SloResult",
    "build_timeline",
    "evaluate_report_slos",
    "evaluate_slo",
    "parse_duration",
    "parse_slo",
    "reconvergence",
    "render_timeline",
]
