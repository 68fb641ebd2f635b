"""Windowed tail latency: rotating the percentile engine over virtual time.

A :class:`WindowedLatency` is a :class:`~repro.observe.latency.engine.
LatencyHistogram` that *additionally* files every observation into the
fixed virtual-time window containing the observation instant, so a run
report can carry p50/p99 **series over time** instead of only the
end-of-run aggregate (DESIGN.md §13). Window ``w`` covers
``[w·window_s, (w+1)·window_s)`` of virtual time; the window index of an
observation is a pure function of the clock reading, so:

* **rotation is insertion-order invariant** — each window histogram
  inherits the engine's order-invariance, and which window an
  observation lands in depends only on *when* it was observed;
* **window-merge equals whole-run merge** — merging every window's
  histogram reproduces the total histogram exactly (bucket counts,
  min/max, percentile estimates; the floating-point ``sum`` agrees up to
  addition reordering), property-tested;
* **observation stays read-only** — the clock callback reads the
  engine's virtual time and nothing else, so windowed collection cannot
  perturb the observed run (golden-pinned).

The total (parent) histogram keeps feeding everything that existed
before windowing — ``lat`` report records, merged cluster rows — while
``windows`` feeds the new ``wlat`` records, the SLO burn-rate engine and
the recovery degradation timeline.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.observe.latency.engine import (
    DEFAULT_BASE,
    DEFAULT_GROWTH,
    LatencyHistogram,
)

__all__ = ["WindowedLatency", "merge_windowed", "window_records"]


class WindowedLatency(LatencyHistogram):
    """A latency histogram that also rotates into virtual-time windows."""

    __slots__ = ("clock", "window_s", "windows")

    def __init__(
        self,
        name: str = "",
        node: int = -1,
        clock: Callable[[], float] = None,  # required; kwarg for symmetry
        window_s: float = 1e-3,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        super().__init__(name, node, base=base, growth=growth)
        if clock is None:
            raise ValueError("WindowedLatency needs a clock callback")
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        self.clock = clock
        self.window_s = window_s
        #: {window index: histogram of observations made in that window}
        self.windows: Dict[int, LatencyHistogram] = {}

    def window_index(self, t: float) -> int:
        return int(t // self.window_s)

    def observe(self, value: float) -> None:
        value = max(float(value), 0.0)  # as LatencyHistogram.observe
        index = self.bucket_index(value)  # total and window: one geometry
        self.add(value, index)
        w = self.window_index(self.clock())
        h = self.windows.get(w)
        if h is None:
            h = self.windows[w] = LatencyHistogram(
                self.name, self.node, base=self.base, growth=self.growth
            )
        h.add(value, index)


def window_records(
    windows: Dict[int, LatencyHistogram], window_s: float, **fields: object
) -> List[Dict[str, object]]:
    """One serializable record per non-empty window, in time order, each
    carrying ``fields`` (a report's record kind, metric and node)."""
    return [
        {**fields, "window": w, "t0": w * window_s, "t1": (w + 1) * window_s,
         "window_s": window_s, **h.to_dict()}
        for w, h in sorted(windows.items())
    ]


def merge_windowed(
    parts: Iterable[WindowedLatency], name: str = "", node: int = -1
) -> Dict[int, LatencyHistogram]:
    """Merge several nodes' windowed histograms window-by-window.

    Returns ``{window index: cluster-merged histogram}`` — the input to
    the SLO engine and the degradation timeline, which evaluate the
    *cluster's* tail per window, not each node's.
    """
    merged: Dict[int, LatencyHistogram] = {}
    for part in parts:
        for w, h in part.windows.items():
            tgt = merged.get(w)
            if tgt is None:
                tgt = merged[w] = LatencyHistogram(
                    name or h.name, node, base=h.base, growth=h.growth
                )
            tgt.merge_from(h)
    return merged
