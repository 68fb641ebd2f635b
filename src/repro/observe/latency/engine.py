"""Log-bucketed latency histograms: deterministic, mergeable, bounded error.

The percentile engine behind the run report's tail-latency tables
(DESIGN.md §7.3). An HDR-histogram-style structure specialised for the
simulator's *virtual-time* durations:

* **log buckets** — bucket ``i`` covers ``(base·g^(i-1), base·g^i]``
  for growth factor ``g``; a value's bucket index is a pure function of
  the value, so the histogram state is a pure function of the *multiset*
  of observations (insertion order cannot matter);
* **bounded relative error** — a percentile estimate is the upper bound
  of the bucket holding the rank-``ceil(p/100·n)`` smallest observation,
  clamped to the exact observed maximum. For any true percentile value
  ``t > base`` the estimate ``e`` satisfies ``t <= e <= t·g``, i.e.
  relative error ``<= g - 1`` (property-tested); values at or below
  ``base`` (one virtual nanosecond by default) carry absolute error
  ``<= base``, and exact zeros are reported exactly;
* **mergeable** — bucket counts add elementwise, so per-node histograms
  merge into a cluster-wide distribution without re-observing anything
  (``merge(h1, h2)`` equals the histogram of the concatenated samples,
  also property-tested).

Everything here is registry-private arithmetic: observing a value reads
nothing from the simulation and mutates only this object, preserving the
observability layer's read-only guarantee. ``sum`` is the one field
accumulated in floating point (and therefore nominally insertion-order
sensitive in its last bits); counts, min/max and every percentile
estimate are exactly order-invariant.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "LatencyHistogram",
    "DEFAULT_GROWTH",
    "DEFAULT_BASE",
    "PERCENTILES",
    "exact_percentile",
]

#: default bucket growth factor: 2^(1/4) per bucket, so estimates carry
#: at most ~18.9 % relative error and a 9-decade range (1 ns .. 10 s of
#: virtual time) needs only ceil(log_g(1e10)) = 120 bucket slots
DEFAULT_GROWTH = 2.0 ** 0.25

#: smallest resolvable duration: one virtual nanosecond. Everything in
#: (0, base] lands in bucket 0 with absolute error <= base.
DEFAULT_BASE = 1e-9

#: the run report's standard percentile columns
PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: percentile -> report column label ("p999" for 99.9)
PERCENTILE_LABELS: Dict[float, str] = {
    50.0: "p50", 90.0: "p90", 99.0: "p99", 99.9: "p999",
}


#: [upper_bound(0), upper_bound(1), ...]: the one bound table, shared by
#: every histogram and extended as larger values arrive
_BOUNDS: List[float] = [DEFAULT_BASE]


def _rank(p: float, n: int) -> int:
    """Rank (1-based) of the p-th percentile in n sorted samples."""
    return max(1, min(n, math.ceil(p / 100.0 * n)))


def exact_percentile(values: List[float], p: float) -> float:
    """Exact percentile of a sample list under the engine's rank rule.

    The reference the property tests compare bucket estimates against:
    the rank-``ceil(p/100·n)`` smallest value.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


class LatencyHistogram:
    """Sparse log-bucketed distribution of non-negative durations, all in
    one bucket geometry (:data:`DEFAULT_BASE`, :data:`DEFAULT_GROWTH`)."""

    __slots__ = ("name", "node", "buckets", "zero_count", "count", "total",
                 "min", "max")

    def __init__(self, name: str, node: int) -> None:
        self.name = name
        self.node = node
        #: sparse {bucket index: count}; index i covers (ub(i-1), ub(i)]
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    # bucket geometry
    # ------------------------------------------------------------------
    @staticmethod
    def upper_bound(index: int) -> float:
        return DEFAULT_BASE * DEFAULT_GROWTH ** index

    def bucket_index(self, value: float) -> int:
        """Smallest ``i >= 0`` with ``upper_bound(i) >= value``.

        One bisection over the bound table, whose entry ``i`` is the very
        float ``upper_bound(i)`` returns, so the mapping is exact by
        construction — the monotonicity the error bound and the
        order-invariance guarantee both rest on.
        """
        bounds = _BOUNDS
        while bounds[-1] < value:
            bounds.append(self.upper_bound(len(bounds)))
        return bisect_left(bounds, value)

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        # virtual durations are differences of a monotone clock; clamp
        # defensive float dust rather than corrupting buckets
        value = max(float(value), 0.0)
        self.add(value, self.bucket_index(value))

    def add(self, value: float, index: int) -> None:
        """Count a non-negative ``value`` already placed in bucket ``index``."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zero_count += 1
        else:
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge_from(self, other: "LatencyHistogram") -> None:
        """Add ``other``'s counts into this histogram (elementwise)."""
        for i, c in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + c
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    @classmethod
    def merged(
        cls, parts: Iterable["LatencyHistogram"], name: str, node: int
    ) -> "LatencyHistogram":
        out = cls(name, node)
        for h in parts:
            out.merge_from(h)
        return out

    # ------------------------------------------------------------------
    # percentiles
    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """Estimate of the p-th percentile (documented error bounds)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        return self._estimates((p,), sorted(self.buckets.items()))[0]

    def _estimates(self, ps: Sequence[float], ordered: list) -> List[float]:
        """Every ``ps`` estimate from one pass over the sorted buckets."""
        if self.count == 0:
            return [0.0] * len(ps)
        # cums[k]: observations at or below the k-th bucket; cums[0]: zeros
        cums = list(accumulate((c for _, c in ordered), initial=self.zero_count))
        out: List[float] = []
        for p in ps:
            k = bisect_left(cums, _rank(p, self.count))
            if k == 0:
                out.append(0.0)
            elif k == len(cums):
                out.append(self.max)  # unreachable unless counts were corrupted
            else:
                est = self.upper_bound(ordered[k - 1][0])
                # exact observed extrema always dominate bucket bounds
                out.append(min(max(est, self.min), self.max))
        return out

    def count_over(self, threshold: float) -> int:
        """Observations estimated to exceed ``threshold`` (SLO bad count).

        Exact for thresholds on bucket boundaries; a threshold inside a
        bucket counts that whole bucket as over, so the estimate is
        *conservative* (never under-reports badness) with the engine's
        usual relative-error bound. Exact zeros are never "over" a
        non-negative threshold.
        """
        if threshold < 0.0:
            return self.count
        if self.count and threshold >= self.max:
            return 0
        over = 0
        for i, c in self.buckets.items():
            # bucket i covers (ub(i-1), ub(i)]; entirely at or below the
            # threshold only when its upper bound is
            if self.upper_bound(i) > threshold:
                over += c
        return over

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return self._summary(sorted(self.buckets.items()))

    def _summary(self, ordered: list) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for p, estimate in zip(PERCENTILES, self._estimates(PERCENTILES, ordered)):
            out[PERCENTILE_LABELS[p]] = estimate
        return out

    # ------------------------------------------------------------------
    # serialization (run-report "lat" records, merging across runs)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        ordered = sorted(self.buckets.items())
        return {
            "base": DEFAULT_BASE,
            "growth": DEFAULT_GROWTH,
            "zero": self.zero_count,
            "buckets": list(map(list, ordered)),
            "sum": self.total,
            **self._summary(ordered),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], name: str = "", node: int = -1
    ) -> "LatencyHistogram":
        """A histogram from its ``to_dict`` record; a record written in
        another bucket geometry raises ``ValueError``."""
        if (data["base"], data["growth"]) != (DEFAULT_BASE, DEFAULT_GROWTH):
            raise ValueError(
                f"histogram record in another geometry: base {data['base']}, "
                f"growth {data['growth']} (expected {DEFAULT_BASE}, "
                f"{DEFAULT_GROWTH})"
            )
        h = cls(name, node)
        h.zero_count = int(data.get("zero", 0))
        h.buckets = {int(i): int(c) for i, c in data.get("buckets", ())}
        h.count = int(data["count"])
        h.total = float(data.get("sum", 0.0))
        if h.count:
            h.min = float(data["min"])
            h.max = float(data["max"])
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram({self.name!r}, node={self.node}, "
            f"count={self.count}, p99={self.percentile(99.0):.3g})"
        )
