"""Tail-latency percentile engine (DESIGN.md §7.3).

Log-bucketed, deterministic, mergeable virtual-time histograms feeding
the run report's p50/p90/p99/p999 tables. See :mod:`.engine`.
"""

from repro.observe.latency.engine import LatencyHistogram, exact_percentile

__all__ = ["LatencyHistogram", "exact_percentile"]
