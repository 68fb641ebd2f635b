"""Metrics registry: counters, gauge rows and latency histograms.

The registry is the single collection point of the observability layer
(DESIGN.md §7.2). Each observation is kept once, in one of three forms:

``Counter``
    A monotonically increasing value (bytes trimmed, checkpoints taken).
    Incremented at instrumentation sites; sampled into a time series as
    the one-value row of a gauge reader.

gauge rows (:meth:`MetricsRegistry.gauges`)
    Values read on demand at each sample, a row at a time, by a callback
    closing over live protocol/FT state (volatile log bytes, retained
    checkpoints). They make most of the instrumentation *passive*: the
    instrumented layers keep their existing counters and the registry
    merely reads them at sample time, so a disabled registry costs
    nothing on the hot path.

``LatencyHistogram``
    A log-bucketed percentile distribution (DESIGN.md §7.3): deterministic
    bucket placement, bounded-relative-error p50/p90/p99/p999, and
    elementwise-mergeable counts so per-node distributions roll up into
    cluster-wide ones. Created through :meth:`MetricsRegistry.latency`;
    every wait, request and recovery phase is observed here and nowhere
    else.

window table (:meth:`MetricsRegistry.windows`)
    With windowed collection on, one cluster-wide ``LatencyHistogram``
    per (op class, virtual-time window), filed at observe time by every
    node's histogram of that class (DESIGN.md §7.4). It is what the run
    report's ``wlat`` records, the SLO engine and the degradation
    timeline read; no node keeps windows of its own.

Determinism guarantee
---------------------
Every registry operation only *reads* simulation state or mutates
registry-private storage. Nothing here schedules events, sends messages,
charges CPU time or touches vector clocks, so attaching a registry (and
sampling it) can never perturb a run — the golden determinism test pins
this.
"""

from __future__ import annotations

from array import array
from collections import abc
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observe.latency import LatencyHistogram

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "Points",
]


class Counter:
    """Monotonically increasing metric."""

    __slots__ = ("name", "node", "value")

    def __init__(self, name: str, node: int) -> None:
        self.name = name
        self.node = node
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; cannot add {amount}"
            )
        self.value += amount


#: node id used for cluster-wide (not per-process) metrics
CLUSTER_NODE = -1


Key = Tuple[str, int]


class WindowedLatency(LatencyHistogram):
    """One node's distribution of an op class that also files each
    observation into the class's window table, shared by every node: the
    histogram of window ``w`` covers virtual time ``[w·window_s,
    (w+1)·window_s)`` and is the cluster's, not this node's."""

    __slots__ = ("clock", "window_s", "windows")

    def __init__(
        self,
        name: str,
        node: int,
        clock: Callable[[], float],
        window_s: float,
        windows: Dict[int, LatencyHistogram],
    ) -> None:
        super().__init__(name, node)
        self.clock, self.window_s, self.windows = clock, window_s, windows

    def observe(self, value: float) -> None:
        value = max(float(value), 0.0)  # as LatencyHistogram.observe
        index = self.bucket_index(value)  # total and window: one geometry
        self.add(value, index)
        w = int(self.clock() // self.window_s)
        h = self.windows.get(w)
        if h is None:
            h = self.windows[w] = LatencyHistogram(self.name, CLUSTER_NODE)
        h.add(value, index)


class Points(abc.Sequence):
    """One series read as its ``[x, v]`` pairs: a view of the registry's
    columns, not a copy. The columns only grow, so the length is pinned
    here and the view stays what it was however many samples follow. A
    pair exists while someone looks at it; ``==`` takes any sequence of
    pairs, lists or tuples (a loaded report, another view)."""

    __slots__ = ("_xs", "_start", "_vs", "_n")

    def __init__(self, xs: Sequence[float], start: int, vs: Sequence[float]) -> None:
        self._xs, self._start, self._vs, self._n = xs, start, vs, len(vs)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[List[float]]:
        stop = self._start + self._n
        return map(list, zip(self._xs[self._start:stop], self._vs[:self._n]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if not -self._n <= i < self._n:
            raise IndexError("series index out of range")
        i %= self._n
        return [self._xs[self._start + i], self._vs[i]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(other) == self._n and all(
            isinstance(b, abc.Sequence) and a == list(b) for a, b in zip(self, other)
        )

    def __repr__(self) -> str:
        return repr(list(self))


class MetricsRegistry:
    """Registry of named per-node metrics plus their sampled series.

    Metrics are keyed by ``(name, node)``; ``node`` is a process id or
    :data:`CLUSTER_NODE` for cluster-wide quantities. ``sample(x)``
    snapshots every counter and gauge as one more ``(x, value)`` point of
    its series — ``x`` is virtual time for the cadence sampler, but any
    monotone axis works (Figure 4 records against checkpoint number via
    :meth:`record`).

    Storage is columnar (DESIGN.md §7.2): a series is a column of doubles
    over an x column — the one axis ``sample(x)`` appends to, from the
    sample count at which the metric registered, or a ``record()``
    series' own. Every read accessor, and a report, hands out
    :class:`Points` views of the columns.
    """

    def __init__(self) -> None:
        self._counters: Dict[Key, Counter] = {}
        self._latencies: Dict[Key, LatencyHistogram] = {}
        self._axis = array("d")
        #: key -> (x column, index of its first x there, value column)
        self._series: Dict[Key, Tuple[array, int, array]] = {}
        #: (read, columns): each sample appends ``read()``'s row to them
        self._readers: List[Tuple[Callable[[], Sequence[float]], List[array]]] = []
        #: derived() memo: key -> (version, value)
        self._derived: Dict[Any, Tuple[Any, Any]] = {}
        # windowed collection (DESIGN.md §7.4): once enable_windows() set a
        # clock callback and a window width, latency() hands out
        # WindowedLatency instances that file into the op class's table —
        # the clock only *reads* virtual time, preserving the layer's
        # read-only guarantee
        self.clock: Optional[Callable[[], float]] = None
        self.window_s: Optional[float] = None
        #: op class -> window index -> the cluster's histogram there
        self._windows: Dict[str, Dict[int, LatencyHistogram]] = {}

    def enable_windows(
        self, clock: Callable[[], float], window_s: float
    ) -> None:
        """Turn on windowed latency collection for metrics created later.

        Must run before the first ``latency()`` call for any op class
        that should rotate (histograms are interned; already-created
        ones keep their kind).
        """
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        self.clock = clock
        self.window_s = window_s

    # ------------------------------------------------------------------
    # metric factories (interned by (name, node))
    # ------------------------------------------------------------------
    def counter(self, name: str, node: int = CLUSTER_NODE) -> Counter:
        key = (name, node)
        c = self._counters.get(key)
        if c is None:
            c = Counter(name, node)
            self.gauges((name,), node, lambda: (c.value,))
            self._counters[key] = c
        return c

    def gauges(
        self, names: Sequence[str], node: int, read: Callable[[], Sequence[float]]
    ) -> None:
        """Sample ``(name, node)`` for every name from one reader: each
        :meth:`sample` calls ``read()`` once for the row, one number per
        name in the order of ``names``. A counter is the row ``(value,)``."""
        columns = [self._new_series((name, node), self._axis)[2] for name in names]
        self._readers.append((read, columns))

    def _new_series(self, key: Key, xs: array) -> Tuple[array, int, array]:
        """A value column for ``key`` over ``xs``, from its current end on."""
        if key in self._series:
            raise ValueError(
                f"metric {key!r} already has a series: a key is a counter, "
                "a gauge or record()ed points, never two of them"
            )
        entry = self._series[key] = (xs, len(xs), array("d"))
        return entry

    def latency(self, name: str, node: int = CLUSTER_NODE) -> LatencyHistogram:
        """Log-bucketed percentile distribution (interned by (name, node))."""
        key = (name, node)
        h = self._latencies.get(key)
        if h is None:
            if self.window_s is None:
                h = LatencyHistogram(name, node)
            else:
                table = self._windows.setdefault(name, {})
                h = WindowedLatency(name, node, self.clock, self.window_s, table)
            self._latencies[key] = h
        return h

    # ------------------------------------------------------------------
    # series
    # ------------------------------------------------------------------
    def record(self, name: str, node: int, x: float, value: float) -> None:
        """Append one ``(x, value)`` point to a series directly."""
        key = (name, node)
        xs, _, vs = self._series.get(key) or self._new_series(key, array("d"))
        if xs is self._axis:
            raise ValueError(
                f"metric {key!r} is sampled: record() would interleave "
                "foreign x values into its series"
            )
        xs.append(x)
        vs.append(value)

    def sample(self, x: float) -> None:
        """Snapshot every counter and gauge at axis position ``x``."""
        self._axis.append(x)
        for read, columns in self._readers:
            row = read()
            if len(row) != len(columns):
                raise ValueError(f"reader filled {len(row)} of {len(columns)} columns")
            for column, value in zip(columns, row):
                column.append(value)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def samples_taken(self) -> int:
        return len(self._axis)

    def names(self) -> List[str]:
        keys = {*self._series, *self._latencies}
        return sorted({name for name, _ in keys})

    @property
    def series(self) -> Dict[Key, Points]:
        """Every series with a point, in key order."""
        views = ((key, self.get_series(*key)) for key in sorted(self._series))
        return {key: points for key, points in views if points}

    def series_by_name(self, name: str) -> Dict[int, Points]:
        """``{node: points}`` for every node with a series under ``name``."""
        return {node: pts for (n, node), pts in self.series.items() if n == name}

    def get_series(self, name: str, node: int) -> Points:
        return Points(*self._series.get((name, node), ((), 0, ())))

    def derived(self, key: Any, version: Any, build: Callable[[], Any]) -> Any:
        """``build()``, remembered while ``version`` (a length or a count:
        the data is append-only) compares equal, then replaced, not updated."""
        hit = self._derived.get(key)
        if hit is None or hit[0] != version:
            hit = self._derived[key] = (version, build())
        return hit[1]

    def latencies_by_name(self, name: str) -> Dict[int, LatencyHistogram]:
        return {
            node: h for (n, node), h in sorted(self._latencies.items()) if n == name
        }

    def latency_names(self) -> List[str]:
        return sorted({name for name, _ in self._latencies})

    def merged_latency(self, name: str) -> Optional[LatencyHistogram]:
        """All nodes' distributions under ``name`` merged into one
        cluster-wide histogram (:data:`CLUSTER_NODE`); None if absent."""
        parts = self.latencies_by_name(name).values()
        return (
            LatencyHistogram.merged(parts, name=name, node=CLUSTER_NODE)
            if parts else None
        )

    def windows(self, name: str) -> Dict[int, LatencyHistogram]:
        """``{window index: cluster histogram}`` under ``name``: the table
        itself, to read only. Empty when windowed collection is off (or
        nothing was observed)."""
        return self._windows.get(name, {})
