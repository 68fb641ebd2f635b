"""Unit tests for the shared ASCII rendering helpers (repro.render)."""

import pytest

from repro.render import (
    BAR_WIDTH,
    CHART_HEIGHT,
    CHART_WIDTH,
    Table,
    ascii_histogram,
    ascii_series,
    format_bytes,
    format_duration,
    format_pct,
)


def test_format_bytes():
    assert format_bytes(5) == "5 B"
    assert format_bytes(2048) == "2.0 KB"
    assert format_bytes(3_500_000) == "3.50 MB"


def test_format_bytes_negative():
    # thresholds apply to the magnitude so deltas format symmetrically
    assert format_bytes(-5_000_000) == "-5.00 MB"
    assert format_bytes(-2048) == "-2.0 KB"
    assert format_bytes(-5) == "-5 B"
    assert format_bytes(0) == "0 B"


def test_format_pct():
    assert format_pct(42.3) == "42 %"
    assert format_pct(3.14) == "3.1 %"
    assert format_pct(0.123) == "0.12 %"


def test_format_pct_negative():
    assert format_pct(-12.5) == "-12 %"
    assert format_pct(-3.14) == "-3.1 %"
    assert format_pct(-0.123) == "-0.12 %"


def test_table_render_and_access():
    t = Table("T", ["a", "bb"], note="n")
    t.add(1, "x")
    t.add(22, "yyyy")
    out = t.render()
    assert out.splitlines()[0] == "T"
    assert "a " in out and "bb" in out
    assert "yyyy" in out and out.endswith("n")
    assert t.cell(0, "a") == 1
    assert t.column("bb") == ["x", "yyyy"]


def test_table_wrong_arity_rejected():
    t = Table("T", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_table_empty_renders():
    t = Table("Empty", ["col"])
    assert "Empty" in t.render()


def test_ascii_series_renders_marks():
    out = ascii_series(
        "S",
        {"one": [(0, 0.0), (1, 1.0)], "two": [(0, 1.0), (1, 0.0)]},
    )
    assert "o = one" in out and "x = two" in out
    assert "o" in out.splitlines()[3]


def test_ascii_series_empty():
    assert "(no data)" in ascii_series("S", {})


def test_ascii_series_constant_series():
    height = CHART_HEIGHT
    out = ascii_series("S", {"flat": [(0, 5.0), (1, 5.0)]})
    assert "flat" in out
    # a flat series still draws its marks, centered vertically instead of
    # collapsed onto the bottom axis row
    grid = [l[1:] for l in out.splitlines() if l.startswith("|")]
    assert len(grid) == height
    rows_with_marks = [i for i, r in enumerate(grid) if "o" in r]
    assert rows_with_marks == [height // 2]
    assert grid[height // 2].count("o") == 2


def test_ascii_series_window_labelled_x_axis():
    """With ``window_s`` the x-axis names the window-index bounds, so a
    point on a windowed tail-latency chart maps back to its window."""
    out = ascii_series(
        "S",
        {"p99": [(0.0, 1.0), (5.5e-3, 2.0)]},
        xlabel="s",
        window_s=1e-3,
    )
    xline = next(l for l in out.splitlines() if l.startswith("x:"))
    assert "(windows 0..5, 1.000 ms each)" in xline
    # and without window_s the axis is unchanged
    plain = ascii_series("S", {"p99": [(0.0, 1.0), (5.5e-3, 2.0)]}, xlabel="s")
    assert "windows" not in plain


def test_ascii_series_single_point():
    out = ascii_series("S", {"pt": [(3.0, 7.0)]})
    grid = [l[1:] for l in out.splitlines() if l.startswith("|")]
    # both ranges degenerate: the single mark is centered, not cornered
    assert grid[CHART_HEIGHT // 2][CHART_WIDTH // 2] == "o"
    assert sum(r.count("o") for r in grid) == 1


def test_format_duration_tiers():
    assert format_duration(2.5) == "2.500 s"
    assert format_duration(3.2e-3) == "3.200 ms"
    assert format_duration(55.1e-6) == "55.1 us"
    assert format_duration(4e-9) == "4 ns"
    assert format_duration(0.0) == "0"


def test_ascii_histogram_multi_bucket():
    out = ascii_histogram("H", [("10 us", 40), ("20 us", 0), ("40 us", 4)])
    lines = out.splitlines()
    assert lines[0] == "H"
    # proportional bars, at least one mark for any nonzero count
    assert "#" * BAR_WIDTH in out
    assert any(l.rstrip().endswith("4") and l.count("#") == 4 for l in lines)
    # zero-count rows draw an empty bar and no trailing spaces
    assert all(l == l.rstrip() for l in lines)


def test_ascii_histogram_empty_is_centered_placeholder():
    out = ascii_histogram("H", [])
    assert "(no samples)" in out
    # centered in the bar area, not flush-left
    assert out.splitlines()[-1].startswith(" ")
    # all-zero buckets degrade identically to no buckets at all
    zeros = ascii_histogram("H", [("a", 0), ("b", 0)])
    assert "(no samples)" in zeros
    assert "#" not in zeros


def test_ascii_histogram_single_bucket_centered():
    out = ascii_histogram("H", [("55 us", 43)])
    lines = out.splitlines()
    assert "(single-bucket distribution)" in out
    bar_line = next(l for l in lines if "#" in l)
    # the one bar is centered against the bar area, not pinned to the
    # axis at full width
    bar = bar_line.split("|")[1]
    assert bar.startswith(" ") and "43" in bar_line
    assert bar_line.count("#") < BAR_WIDTH
