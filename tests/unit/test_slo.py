"""Unit tests for the SLO layer: windowed rotation, burn-rate engine,
and the recovery degradation timeline (DESIGN.md §13).

The windowing contract mirrors the percentile engine's: which window an
observation lands in is a pure function of the observation instant, so
rotation is insertion-order invariant and merging every window's
histogram reproduces the whole-run histogram exactly (counts, buckets,
min/max, percentiles; the float ``sum`` up to addition reordering).
"""

import random

import pytest

from repro.observe.latency import LatencyHistogram
from repro.observe.slo import (
    DEFAULT_RULES,
    BurnRule,
    Objective,
    WindowedLatency,
    build_timeline,
    evaluate_report_slos,
    evaluate_slo,
    parse_slo,
    reconvergence,
    render_timeline,
)
from repro.observe.slo.engine import parse_duration
from repro.observe.slo.windows import merge_windowed, window_records

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------
def test_parse_duration_units():
    assert parse_duration("5ms") == pytest.approx(5e-3)
    assert parse_duration("250us") == pytest.approx(250e-6)
    assert parse_duration("3ns") == pytest.approx(3e-9)
    assert parse_duration("1.5s") == pytest.approx(1.5)
    assert parse_duration("3e-3") == pytest.approx(3e-3)  # bare seconds


@pytest.mark.parametrize("bad", ["", "fast", "5 parsecs", "..ms"])
def test_parse_duration_rejects(bad):
    with pytest.raises(ValueError):
        parse_duration(bad)


def test_parse_slo_spec():
    obj = parse_slo("p99(lat.request) < 5ms")
    assert obj.metric == "lat.request"
    assert obj.percentile == 99.0
    assert obj.threshold_s == pytest.approx(5e-3)
    assert obj.budget == pytest.approx(0.01)
    # spec round-trips through the parser
    assert parse_slo(obj.spec) == obj


@pytest.mark.parametrize(
    "bad",
    ["p99 lat < 5ms", "p0(lat.x) < 5ms", "p100(lat.x) < 5ms",
     "p99(lat.x) > 5ms", "p99(lat.x) < soon"],
)
def test_parse_slo_rejects(bad):
    with pytest.raises(ValueError):
        parse_slo(bad)


# ---------------------------------------------------------------------------
# windowed rotation
# ---------------------------------------------------------------------------
def _windowed(events, window_s=1e-3):
    """Build a WindowedLatency from [(t, value), ...] events."""
    now = {"t": 0.0}
    wl = WindowedLatency("lat.x", 0, clock=lambda: now["t"], window_s=window_s)
    for t, v in events:
        now["t"] = t
        wl.observe(v)
    return wl


#: virtual observation instants and durations, both spanning wide ranges
events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-9, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=200,
)


def _assert_same_distribution(a, b):
    assert a.count == b.count
    assert a.zero_count == b.zero_count
    assert a.buckets == b.buckets
    assert a.min == b.min and a.max == b.max
    for p in (50.0, 90.0, 99.0, 99.9):
        assert a.percentile(p) == b.percentile(p)
    assert a.total == pytest.approx(b.total)  # float addition reordering


@given(events)
@settings(max_examples=100, deadline=None)
def test_window_merge_equals_whole_run_merge(evs):
    wl = _windowed(evs)
    total = LatencyHistogram("lat.x", 0)
    for h in merge_windowed([wl], name="lat.x").values():
        total.merge_from(h)
    _assert_same_distribution(total, wl)
    # every observation landed in the window containing its instant
    assert sum(h.count for h in wl.windows.values()) == wl.count


@given(events, st.randoms())
@settings(max_examples=100, deadline=None)
def test_rotation_insertion_order_invariance(evs, rng):
    a = _windowed(evs)
    shuffled = list(evs)
    rng.shuffle(shuffled)
    b = _windowed(shuffled)
    assert sorted(a.windows) == sorted(b.windows)
    for w in a.windows:
        _assert_same_distribution(a.windows[w], b.windows[w])
    _assert_same_distribution(a, b)


#: durations as the clamp sees them: exact zeros and negative float dust too
dusty_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05,
                  allow_nan=False, allow_infinity=False),
        st.one_of(
            st.sampled_from([0.0, -0.0, -1e-18, 1e-9]),
            st.floats(min_value=1e-12, max_value=1e3,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=1,
    max_size=200,
)


@given(dusty_events)
@settings(max_examples=100, deadline=None)
def test_fused_observe_equals_observing_total_then_window(evs):
    """The oracle is ``observe`` as it was: the total histogram observes
    the value, then a plain histogram for the window observes it again."""
    wl = _windowed(evs)
    total = LatencyHistogram("lat.x", 0)
    windows = {}
    for t, v in evs:
        total.observe(v)
        w = int(t // 1e-3)
        if w not in windows:
            windows[w] = LatencyHistogram("lat.x", 0)
        windows[w].observe(v)

    def state(h):
        # ``total`` compared with ==: the same additions in the same order
        return (h.count, h.buckets, h.zero_count, h.min, h.max, h.total)

    assert state(wl) == state(total)
    assert sorted(wl.windows) == sorted(windows)
    for w, h in windows.items():
        assert state(wl.windows[w]) == state(h)


def test_window_index_is_pure_function_of_instant():
    wl = _windowed([(0.0, 1e-6)], window_s=1e-3)
    assert wl.window_index(0.0) == 0
    assert wl.window_index(0.9999e-3) == 0
    assert wl.window_index(1e-3) == 1


def test_windowed_requires_clock_and_positive_window():
    with pytest.raises(ValueError, match="clock"):
        WindowedLatency("x", 0, clock=None)
    with pytest.raises(ValueError, match="window_s"):
        WindowedLatency("x", 0, clock=lambda: 0.0, window_s=0.0)


def test_window_records_time_ordered_with_bounds():
    wl = _windowed([(2.5e-3, 1e-6), (0.2e-3, 2e-6), (2.6e-3, 3e-6)])
    recs = window_records(wl.windows, wl.window_s, record="wlat")
    assert [r["window"] for r in recs] == [0, 2]
    assert all(r["record"] == "wlat" for r in recs)
    assert recs[1]["t0"] == pytest.approx(2e-3)
    assert recs[1]["t1"] == pytest.approx(3e-3)
    assert recs[1]["count"] == 2


def test_merge_windowed_across_nodes():
    a = _windowed([(0.1e-3, 1e-6), (1.1e-3, 2e-6)])
    b = _windowed([(1.2e-3, 3e-6), (2.2e-3, 4e-6)])
    merged = merge_windowed([a, b], name="lat.x")
    assert sorted(merged) == [0, 1, 2]
    assert merged[1].count == 2  # one observation from each node


# ---------------------------------------------------------------------------
# burn-rate evaluation
# ---------------------------------------------------------------------------
def _hist(values):
    h = LatencyHistogram("lat.x", -1)
    for v in values:
        h.observe(v)
    return h


def test_count_over_boundary_and_conservatism():
    h = _hist([0.0, 1e-6, 1e-3])
    # exact zeros are never over a non-negative threshold
    assert h.count_over(0.0) == 2
    # threshold at/above the observed max: nothing is over
    assert h.count_over(1e-3) == 0
    assert h.count_over(2e-3) == 0
    # threshold inside a bucket counts the whole bucket (conservative)
    assert h.count_over(0.99e-3) >= 1


def test_evaluate_slo_healthy_run_has_no_violations():
    obj = parse_slo("p99(lat.x) < 1ms")
    windows = {w: _hist([1e-5] * 50) for w in range(6)}
    res = evaluate_slo(windows, obj, 1e-3)
    assert res.ok
    assert [pw["window"] for pw in res.per_window] == list(range(6))
    assert all(pw["burn"] == 0.0 for pw in res.per_window)


def test_evaluate_slo_sustained_burn_fires_rules():
    obj = parse_slo("p99(lat.x) < 1ms")
    # every observation busts the threshold: burn = (1.0)/0.01 = 100x
    windows = {w: _hist([5e-3] * 20) for w in range(6)}
    res = evaluate_slo(windows, obj, 1e-3)
    assert not res.ok
    fired = {v["rule"] for v in res.violations}
    assert fired == {"fast", "slow"}
    burns = [v["long_burn"] for v in res.violations]
    assert all(b == pytest.approx(100.0) for b in burns)


def test_evaluate_slo_recovered_run_stops_alerting():
    """The short span proves the burn is still happening: once the tail
    drops back under the threshold, later windows stop violating even
    though the long span still remembers the bad stretch."""
    obj = parse_slo("p99(lat.x) < 1ms")
    rules = (BurnRule("fast", long_windows=3, short_windows=1, max_burn=8.0),)
    windows = {0: _hist([5e-3] * 20), 1: _hist([5e-3] * 20)}
    windows.update({w: _hist([1e-5] * 20) for w in range(2, 8)})
    res = evaluate_slo(windows, obj, 1e-3, rules=rules)
    assert not res.ok
    assert max(v["window"] for v in res.violations) <= 2


def test_evaluate_slo_spans_clamped_to_run_length():
    obj = parse_slo("p99(lat.x) < 1ms")
    res = evaluate_slo({0: _hist([5e-3] * 10)}, obj, 1e-3)
    assert not res.ok  # one bad window still evaluates (spans clamp to 1)
    assert all(v["long_windows"] == 1 for v in res.violations)


def test_default_rules_shape():
    assert [r.name for r in DEFAULT_RULES] == ["fast", "slow"]
    for r in DEFAULT_RULES:
        assert r.short_windows <= r.long_windows


def test_slo_result_to_dict_carries_spec_and_verdict():
    obj = parse_slo("p99(lat.x) < 1ms")
    res = evaluate_slo({0: _hist([1e-5] * 10)}, obj, 1e-3)
    d = res.to_dict()
    assert d["spec"] == obj.spec and d["ok"] is True
    assert d["window_s"] == 1e-3 and d["violations"] == []


# ---------------------------------------------------------------------------
# degradation timeline
# ---------------------------------------------------------------------------
def _wlat_record(window, values, window_s=1e-3, metric="lat.request"):
    h = _hist(values)
    return {
        "record": "wlat",
        "metric": metric,
        "node": -1,
        "window": window,
        "t0": window * window_s,
        "t1": (window + 1) * window_s,
        "window_s": window_s,
        **h.to_dict(),
    }


def _report(p99s, recoveries=()):
    """Synthetic loaded report: one wlat record per window."""
    return {
        "wlats": [_wlat_record(w, [v] * 20) for w, v in enumerate(p99s)],
        "recoveries": list(recoveries),
    }


CRASH = {
    "pid": 1,
    "crash_time": 2.4e-3,
    "total": 1.2e-3,
    "detect": 1.0e-3,
    "handshake": 1.5e-4,
    "replay": 5e-5,
}


def test_build_timeline_folds_wlats_and_crash_marks():
    report = _report([1e-5, 1e-5, 5e-3, 5e-3, 1e-5], recoveries=[CRASH])
    tl = build_timeline(report)
    assert tl["window_s"] == 1e-3
    assert [s["window"] for s in tl["series"]] == list(range(5))
    (mark,) = tl["marks"]
    assert mark["crash_window"] == 2
    assert mark["live_window"] == 3  # crash_time + total = 3.6ms
    assert mark["phases"]["detect"] == pytest.approx(1e-3)


def test_build_timeline_none_without_windowed_series():
    assert build_timeline({"wlats": [], "recoveries": [CRASH]}) is None
    # per-node extensions alone don't make a cluster timeline
    rec = _wlat_record(0, [1e-5])
    rec["node"] = 2
    assert build_timeline({"wlats": [rec]}) is None


def test_reconvergence_counts_windows_back_under_slo():
    obj = parse_slo("p99(lat.request) < 1ms")
    report = _report([1e-5, 1e-5, 5e-3, 5e-3, 1e-5, 1e-5], recoveries=[CRASH])
    (rec,) = reconvergence(build_timeline(report), obj)
    assert rec["crash_window"] == 2
    assert rec["reconverged_window"] == 4
    assert rec["windows"] == 2


def test_reconvergence_none_when_run_ends_degraded():
    obj = parse_slo("p99(lat.request) < 1ms")
    report = _report([1e-5, 1e-5, 5e-3, 5e-3], recoveries=[CRASH])
    (rec,) = reconvergence(build_timeline(report), obj)
    assert rec["reconverged_window"] is None and rec["windows"] is None


def test_render_timeline_marks_and_verdict():
    obj = parse_slo("p99(lat.request) < 1ms")
    report = _report([1e-5, 1e-5, 5e-3, 5e-3, 1e-5, 1e-5], recoveries=[CRASH])
    text = render_timeline(build_timeline(report), obj)
    assert "degradation timeline" in text
    assert "(windows 0..5" in text  # window-labelled x axis
    assert "crash: p1 down" in text and "(window 2)" in text
    assert "reconverged 2 window(s)" in text


def test_render_timeline_failure_free():
    text = render_timeline(build_timeline(_report([1e-5, 1e-5])))
    assert "failure-free" in text


# ---------------------------------------------------------------------------
# offline evaluation against a report artifact
# ---------------------------------------------------------------------------
def test_evaluate_report_slos_matches_live_windows():
    obj = parse_slo("p99(lat.request) < 1ms")
    values = {0: [1e-5] * 20, 1: [5e-3] * 20, 2: [5e-3] * 20}
    report = {
        "wlats": [_wlat_record(w, vs) for w, vs in values.items()],
    }
    (offline,) = evaluate_report_slos(report, [obj])
    live = evaluate_slo(
        {w: _hist(vs) for w, vs in values.items()}, obj, 1e-3
    )
    assert offline.per_window == live.per_window
    assert offline.violations == live.violations
