"""Serving-oriented observability: SLOs and degradation over windowed tails.

Two pieces built for the open-loop session workload, both reading a run
report's ``wlat`` records (one per histogram of the registry's window
table, DESIGN.md §7.4):

* :mod:`.engine` — declarative latency objectives with multi-window
  burn-rate evaluation (the exit-nonzero SLO gate);
* :mod:`.timeline` — overlay crash/recovery-phase marks on the windowed
  p99 series and measure windows-to-SLO-reconvergence.
"""

from repro.observe.slo.engine import (
    DEFAULT_RULES,
    BurnRule,
    Objective,
    SloResult,
    evaluate_report_slos,
    evaluate_slo,
    parse_duration,
    parse_slo,
)
from repro.observe.slo.timeline import (
    build_timeline,
    reconvergence,
    render_timeline,
)

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
