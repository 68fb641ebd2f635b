"""Tail-latency percentile engine (DESIGN.md §7.3).

Log-bucketed, deterministic, mergeable virtual-time histograms feeding
the run report's p50/p90/p99/p999 tables. See :mod:`.engine`.
"""

from repro.observe.latency.engine import (
    DEFAULT_BASE,
    DEFAULT_GROWTH,
    PERCENTILE_LABELS,
    PERCENTILES,
    LatencyHistogram,
    exact_percentile,
)

__all__ = [
    "DEFAULT_BASE",
    "DEFAULT_GROWTH",
    "PERCENTILE_LABELS",
    "PERCENTILES",
    "LatencyHistogram",
    "exact_percentile",
]
