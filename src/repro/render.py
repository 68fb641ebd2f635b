"""Shared ASCII rendering helpers: tables, series plots, unit formatting.

One home for the plain-text presentation primitives used across the
codebase — the paper-table harness, the benchmark reports, the
observability run reports and the invariant monitor's flight records all
render through these. The paper's tables are regenerated as ASCII tables;
its figures as ASCII-rendered series (values are also returned structured
so tests can assert on them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Table", "ascii_histogram", "ascii_series", "format_bytes", "format_pct",
    "format_duration",
]


def format_bytes(n: float) -> str:
    """Human-readable byte counts (KB/MB with sensible precision).

    Thresholds apply to the magnitude, so deltas (bytes trimmed,
    regressions) format symmetrically: ``format_bytes(-5e6)`` is
    ``"-5.00 MB"``, not a raw negative byte count.
    """
    sign = "-" if n < 0 else ""
    a = abs(n)
    if a >= 1e6:
        return f"{sign}{a / 1e6:.2f} MB"
    if a >= 1e3:
        return f"{sign}{a / 1e3:.1f} KB"
    return f"{sign}{int(a)} B"


def format_duration(seconds: float) -> str:
    """Human-readable virtual-time durations (ns/us/ms/s)."""
    a = abs(seconds)
    if a >= 1.0:
        return f"{seconds:.3f} s"
    if a >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if a >= 1e-6:
        return f"{seconds * 1e6:.1f} us"
    if a > 0:
        return f"{seconds * 1e9:.0f} ns"
    return "0"


def format_pct(x: float) -> str:
    """Percentage with magnitude-based precision (sign preserved)."""
    a = abs(x)
    if a >= 10:
        return f"{x:.0f} %"
    if a >= 1:
        return f"{x:.1f} %"
    return f"{x:.2f} %"


@dataclass
class Table:
    """A titled table with typed rows."""

    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    note: str = ""

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def cell(self, row: int, column: str) -> Any:
        return self.rows[row][self.columns.index(column)]

    def column(self, name: str) -> List[Any]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def render(self) -> str:
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [self.title, "=" * len(self.title), header, sep]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.note:
            lines.append(f"\n{self.note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


#: columns of a histogram's bar area
BAR_WIDTH = 40
#: columns and rows of a series chart's plot area
CHART_WIDTH, CHART_HEIGHT = 60, 12


def ascii_histogram(title: str, buckets: Sequence[Tuple[str, float]]) -> str:
    """Render labelled bucket counts as a horizontal ASCII bar chart.

    ``buckets`` is ``[(label, count), ...]``. Degenerate distributions
    get a centered placeholder instead of a degenerate axis (same
    discipline as :func:`ascii_series` for flat series): an empty (or
    all-zero) histogram renders ``(no samples)`` centered in the bar
    area, and a single-occupied-bucket distribution renders its one bar
    centered rather than pinned against a meaningless scale.
    """
    width = BAR_WIDTH
    lines = [title, "=" * len(title)]
    label_w = max((len(lbl) for lbl, _ in buckets), default=0)
    occupied = [(lbl, c) for lbl, c in buckets if c > 0]
    if not occupied:
        pad = max(0, (label_w + 3 + width - len("(no samples)")) // 2)
        lines.append(" " * pad + "(no samples)")
        return "\n".join(lines)
    if len(occupied) == 1:
        lbl, count = occupied[0]
        bar = "#" * min(width, max(1, width // 2))
        pad = max(0, (width - len(bar)) // 2)
        lines.append(
            f"{lbl.rjust(label_w)} |" + " " * pad + bar + f"  {int(count)}"
        )
        lines.append(f"{'':>{label_w}} (single-bucket distribution)")
        return "\n".join(lines)
    peak = max(c for _, c in occupied)
    for lbl, count in buckets:
        bar = "#" * int(round(count / peak * width)) if count else ""
        if count and not bar:
            bar = "#"  # nonzero counts always show at least one mark
        lines.append(
            (
                f"{lbl.rjust(label_w)} |{bar.ljust(width)}  "
                + (str(int(count)) if count else "")
            ).rstrip()
        )
    return "\n".join(lines)


def ascii_series(
    title: str,
    series: Dict[str, Sequence[Tuple[float, float]]],
    xlabel: str = "",
    ylabel: str = "",
    window_s: Optional[float] = None,
) -> str:
    """Render (x, y) series as a crude ASCII scatter/line chart.

    When ``window_s`` is given the x values are window start times of a
    fixed-width virtual-time windowing, and the x-axis line additionally
    names the window index bounds — readers of the windowed tail-latency
    charts can map a point back to its window without dividing by hand.
    """
    pts = [(x, y) for s in series.values() for x, y in s]
    if not pts:
        return f"{title}\n(no data)"
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = x1 - x0
    yr = y1 - y0
    width, height = CHART_WIDTH, CHART_HEIGHT
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@"
    legend = []
    # degenerate ranges (flat series, single points) center their marks
    # instead of collapsing onto a border row/column
    mid_row = height // 2
    mid_col = width // 2
    for k, (name, s) in enumerate(series.items()):
        m = marks[k % len(marks)]
        legend.append(f"{m} = {name}")
        for x, y in s:
            col = int((x - x0) / xr * (width - 1)) if xr else mid_col
            row = (
                height - 1 - int((y - y0) / yr * (height - 1)) if yr else mid_row
            )
            grid[row][col] = m
    lines = [title, "=" * len(title)]
    lines.append(f"y: {y1:.3g} (top) .. {y0:.3g} (bottom) {ylabel}")
    lines.extend("|" + "".join(r) for r in grid)
    lines.append("+" + "-" * width)
    if window_s:
        w0, w1 = int(x0 // window_s), int(x1 // window_s)
        lines.append(
            f"x: {x0:.3g} .. {x1:.3g} {xlabel} "
            f"(windows {w0}..{w1}, {format_duration(window_s)} each)"
        )
    else:
        lines.append(f"x: {x0:.3g} .. {x1:.3g} {xlabel}")
    lines.append("   ".join(legend))
    return "\n".join(lines)
