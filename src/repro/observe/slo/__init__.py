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

_TIMELINE = "repro.observe.slo.timeline"

_EXPORTS = {
    "Objective": "repro.observe.slo.engine",
    "build_timeline": _TIMELINE,
    "render_timeline": _TIMELINE,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
