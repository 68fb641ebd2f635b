"""Declarative latency SLOs with multi-window burn-rate evaluation.

An *objective* is a declarative bound on a latency op class::

    p99(lat.request) < 5ms

meaning: at most ``100 - 99 = 1 %`` of requests may exceed 5 ms of
virtual time — the percentile defines the **error budget** (fraction of
requests allowed over the threshold), the threshold defines what "bad"
means. Objectives are evaluated over a run report's ``wlat`` records,
one per histogram of the registry's window table (DESIGN.md §7.4):

* a window's **bad fraction** is ``count_over(threshold) / count``
  (conservative per the engine's documented boundary bias);
* its **burn rate** is ``bad fraction / budget`` — 1.0 means the run is
  spending its error budget exactly as fast as the objective allows,
  >1 means faster;
* a **burn rule** fires when the burn rate over a *long* span of recent
  windows AND over a *short* span both exceed the rule's threshold —
  the SRE multi-window pattern: the long window proves the burn is
  sustained, the short window proves it is still happening (so a
  recovered run stops alerting).

The defaults are scaled to the simulator's short runs (a handful to a
few dozen windows, not hours of wall time): a *fast* rule catching
order-of-magnitude budget burn over 3 windows and a *slow* rule
catching sustained 2x burn over 8. Spans are clamped to the run length
so short smoke runs still evaluate.

Everything here is pure post-processing of report records — no
simulation state is read, so SLO evaluation runs the same against a
live report and a loaded artifact (the ``repro report`` dashboard).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.observe.latency.engine import LatencyHistogram

__all__ = [
    "Objective",
    "BurnRule",
    "DEFAULT_RULES",
    "SloResult",
    "parse_slo",
    "parse_duration",
    "evaluate_slo",
    "evaluate_report_slos",
]

#: ``p<pct>(<metric>) < <duration>``
_SPEC_RE = re.compile(
    r"^\s*p(?P<pct>\d+(?:\.\d+)?)\s*\(\s*(?P<metric>[\w.\-]+)\s*\)"
    r"\s*<\s*(?P<threshold>\S+)\s*$"
)

_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def parse_duration(text: str) -> float:
    """``"5ms"``/``"250us"``/``"1.5s"``/``"3e-3"`` -> seconds."""
    m = re.match(r"^(?P<num>[0-9.eE+\-]+)\s*(?P<unit>[a-z]*)$", text.strip())
    if not m:
        raise ValueError(f"unparseable duration: {text!r}")
    unit = m.group("unit")
    if unit and unit not in _UNITS:
        raise ValueError(f"unknown duration unit {unit!r} in {text!r}")
    try:
        value = float(m.group("num"))
    except ValueError:
        raise ValueError(f"unparseable duration: {text!r}") from None
    return value * _UNITS.get(unit, 1.0)


@dataclass(frozen=True)
class Objective:
    """One declarative latency objective: ``p<pct>(<metric>) < threshold``."""

    metric: str
    percentile: float
    threshold_s: float

    @property
    def budget(self) -> float:
        """Allowed bad fraction (e.g. 0.01 for a p99 objective)."""
        return max(1e-9, 1.0 - self.percentile / 100.0)

    @property
    def spec(self) -> str:
        return f"p{self.percentile:g}({self.metric}) < {self.threshold_s:g}s"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "metric": self.metric,
            "percentile": self.percentile,
            "threshold_s": self.threshold_s,
            "budget": self.budget,
        }


def parse_slo(spec: str) -> Objective:
    """Parse ``"p99(lat.request)<5ms"`` into an :class:`Objective`."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(
            f"unparseable SLO {spec!r} (expected p<pct>(<metric>) < <dur>)"
        )
    pct = float(m.group("pct"))
    if not 0.0 < pct < 100.0:
        raise ValueError(f"SLO percentile out of (0, 100): {pct}")
    return Objective(
        metric=m.group("metric"),
        percentile=pct,
        threshold_s=parse_duration(m.group("threshold")),
    )


@dataclass(frozen=True)
class BurnRule:
    """Fire when burn over the long AND short recent spans exceeds max_burn."""

    name: str
    long_windows: int
    short_windows: int
    max_burn: float


#: multi-window defaults scaled to simulator runs (see module docstring)
DEFAULT_RULES: Tuple[BurnRule, ...] = (
    BurnRule("fast", long_windows=3, short_windows=1, max_burn=8.0),
    BurnRule("slow", long_windows=8, short_windows=2, max_burn=2.0),
)


def cluster_wlats(report: Dict[str, Any], metric: str) -> List[Dict[str, Any]]:
    """A (loaded) run report's cluster ``wlat`` records of ``metric``, in
    window order; per-node extensions are ignored, not double-counted."""
    return sorted(
        (rec for rec in report.get("wlats", ())
         if rec["metric"] == metric and rec.get("node", -1) == -1),
        key=lambda rec: rec["window"],
    )


@dataclass
class SloResult:
    """One objective's evaluation over a run's windowed histograms: a
    ``per_window`` row is ``window``, ``bad`` and ``burn``; the window's
    count and percentiles are its ``wlat`` record's."""

    objective: Objective
    window_s: float
    per_window: List[Dict[str, Any]]
    violations: List[Dict[str, Any]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            **self.objective.to_dict(),
            "window_s": self.window_s,
            "ok": self.ok,
            "per_window": self.per_window,
            "violations": self.violations,
        }


def evaluate_slo(
    wlats: Sequence[Dict[str, Any]], objective: Objective
) -> SloResult:
    """Evaluate one objective over its op class's ``wlat`` records, in
    window order, with :data:`DEFAULT_RULES`.

    Rule spans are clamped to the number of observed windows so short
    runs still evaluate; each window is checked as the endpoint of every
    rule's spans, so a violation names the window where the sustained
    burn was detected.
    """
    threshold, budget = objective.threshold_s, objective.budget
    counts = [rec["count"] for rec in wlats]
    bads = [LatencyHistogram.from_dict(rec).count_over(threshold) for rec in wlats]

    def burn(lo: int, hi: int) -> float:
        """Burn rate over the windows at positions ``lo`` to ``hi``."""
        count = sum(counts[lo : hi + 1])
        return (sum(bads[lo : hi + 1]) / count) / budget if count else 0.0

    per_window: List[Dict[str, Any]] = []
    violations: List[Dict[str, Any]] = []
    for pos, rec in enumerate(wlats):
        per_window.append(
            {"window": rec["window"], "bad": bads[pos], "burn": burn(pos, pos)}
        )
        for rule in DEFAULT_RULES:
            long_span = min(rule.long_windows, len(wlats))
            short_span = min(rule.short_windows, long_span)
            long_burn = burn(max(0, pos - long_span + 1), pos)
            short_burn = burn(max(0, pos - short_span + 1), pos)
            if long_burn >= rule.max_burn and short_burn >= rule.max_burn:
                violations.append(
                    {
                        "rule": rule.name,
                        "window": rec["window"],
                        "t0": rec["t0"],
                        "long_windows": long_span,
                        "short_windows": short_span,
                        "long_burn": long_burn,
                        "short_burn": short_burn,
                        "max_burn": rule.max_burn,
                    }
                )
    window_s = float(wlats[0]["window_s"]) if wlats else 1e-3
    return SloResult(objective, window_s, per_window, violations)


def evaluate_report_slos(
    report: Dict[str, Any], objectives: Sequence[Objective]
) -> List[SloResult]:
    """Evaluate objectives against a (loaded) run report's ``wlat``
    records: a live run gates on its first report, the dashboard on the
    written one, and both read the same records."""
    return [
        evaluate_slo(cluster_wlats(report, objective.metric), objective)
        for objective in objectives
    ]
