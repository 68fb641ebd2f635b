"""Unit tests for the SLO layer: the registry's window table, the
burn-rate engine and the recovery degradation timeline (DESIGN.md §7.4).

The window table's contract mirrors the percentile engine's: which
window an observation lands in is a pure function of the observation
instant, so the table is insertion-order invariant, equals the per-node
windows merged node by node, and merging every window reproduces the
whole-run histogram exactly (counts, buckets, min/max, percentiles; the
float ``sum`` up to addition reordering).
"""

import pytest

from repro.observe.latency import LatencyHistogram
from repro.observe.registry import CLUSTER_NODE, MetricsRegistry
from repro.observe.report import build_report, load_jsonl, write_jsonl
from repro.observe.slo.engine import (
    DEFAULT_RULES,
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
# the window table
# ---------------------------------------------------------------------------
def _registry(events, window_s=1e-3):
    """A registry fed ``[(t, node, value), ...]`` off a fake virtual clock."""
    now = {"t": 0.0}
    reg = MetricsRegistry(lambda: now["t"], window_s)
    for t, node, v in events:
        now["t"] = t
        reg.latency("lat.x", node).observe(v)
    return reg


#: virtual observation instants, observing nodes and durations
instants = st.floats(min_value=0.0, max_value=0.05,
                     allow_nan=False, allow_infinity=False)
nodes = st.integers(min_value=0, max_value=3)
events = st.lists(
    st.tuples(
        instants,
        nodes,
        st.floats(min_value=1e-9, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=200,
)

#: every percentile the report and the SLO engine read, and the extremes
PERCENTILES = (0.0, 50.0, 90.0, 99.0, 99.9, 100.0)


def _assert_same_distribution(a, b):
    assert a.count == b.count
    assert a.zero_count == b.zero_count
    assert a.buckets == b.buckets
    assert a.min == b.min and a.max == b.max
    for p in PERCENTILES:
        assert a.percentile(p) == b.percentile(p)
    assert a.total == pytest.approx(b.total)  # float addition reordering


@given(events)
@settings(max_examples=100, deadline=None)
def test_window_table_equals_per_node_then_merge_fold(evs):
    """The reference is the fold the table replaced: each node keeps its
    own windows, and a cluster window is their merge, node by node. Only
    the float ``total`` may differ (the table adds across nodes in time
    order)."""
    per_node = {}
    for t, node, v in evs:
        windows = per_node.setdefault(node, {})
        w = int(t // 1e-3)
        windows.setdefault(w, LatencyHistogram("lat.x", node)).observe(v)
    reference = {}
    for node in sorted(per_node):
        for w, h in per_node[node].items():
            reference.setdefault(w, LatencyHistogram("lat.x", -1)).merge_from(h)
    table = _registry(evs).windows("lat.x")
    assert sorted(table) == sorted(reference)
    for w, h in reference.items():
        _assert_same_distribution(table[w], h)


@given(events)
@settings(max_examples=100, deadline=None)
def test_window_merge_equals_whole_run_merge(evs):
    reg = _registry(evs)
    windows = reg.windows("lat.x").values()
    _assert_same_distribution(
        LatencyHistogram.merged(windows, "lat.x", -1), reg.merged_latency("lat.x")
    )


@given(events, st.randoms())
@settings(max_examples=100, deadline=None)
def test_rotation_insertion_order_invariance(evs, rng):
    a = _registry(evs).windows("lat.x")
    shuffled = list(evs)
    rng.shuffle(shuffled)
    b = _registry(shuffled).windows("lat.x")
    assert sorted(a) == sorted(b)
    for w in a:
        _assert_same_distribution(a[w], b[w])


#: durations as the clamp sees them: exact zeros and negative float dust too
dusty_events = st.lists(
    st.tuples(
        instants,
        st.just(0),
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
    """The oracle is a node's ``observe`` done twice: the total histogram
    observes the value, then a plain histogram for the window observes
    it again."""
    reg = _registry(evs)
    total = LatencyHistogram("lat.x", 0)
    windows = {}
    for t, _, v in evs:
        total.observe(v)
        w = int(t // 1e-3)
        if w not in windows:
            windows[w] = LatencyHistogram("lat.x", 0)
        windows[w].observe(v)

    def state(h):
        # ``total`` compared with ==: the same additions in the same order
        return (h.count, h.buckets, h.zero_count, h.min, h.max, h.total)

    assert state(reg.latency("lat.x", 0)) == state(total)
    table = reg.windows("lat.x")
    assert sorted(table) == sorted(windows)
    for w, h in windows.items():
        assert state(table[w]) == state(h)


def test_window_index_is_pure_function_of_instant():
    reg = _registry([(0.0, 0, 1e-6), (0.9999e-3, 0, 1e-6), (1e-3, 0, 1e-6)])
    table = reg.windows("lat.x")
    assert {w: h.count for w, h in table.items()} == {0: 2, 1: 1}


def test_windows_require_a_positive_width():
    with pytest.raises(ValueError, match="window_s"):
        MetricsRegistry(lambda: 0.0, 0.0)
    assert MetricsRegistry(lambda: 0.0, 1e-3).windows("lat.x") == {}  # nothing observed


def test_window_records_time_ordered_with_bounds():
    reg = _registry([(2.5e-3, 0, 1e-6), (0.2e-3, 0, 2e-6), (2.6e-3, 0, 3e-6)])
    recs = build_report(reg, {})["wlats"]
    assert [r["window"] for r in recs] == [0, 2]
    assert all(r["record"] == "wlat" for r in recs)
    assert recs[1]["t0"] == pytest.approx(2e-3)
    assert recs[1]["t1"] == pytest.approx(3e-3)
    assert recs[1]["count"] == 2


def test_nodes_share_one_histogram_per_window():
    reg = _registry([(0.1e-3, 0, 1e-6), (1.1e-3, 0, 2e-6),
                     (1.2e-3, 1, 3e-6), (2.2e-3, 1, 4e-6)])
    table = reg.windows("lat.x")
    assert reg.latency("lat.x", 0).windows is table
    assert reg.latency("lat.x", 1).windows is table
    assert sorted(table) == [0, 1, 2]
    assert table[1].count == 2  # one observation from each node
    assert {h.node for h in table.values()} == {CLUSTER_NODE}


# ---------------------------------------------------------------------------
# burn-rate evaluation
# ---------------------------------------------------------------------------
def _hist(values):
    h = LatencyHistogram("lat.x", -1)
    for v in values:
        h.observe(v)
    return h


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


def _wlats(values_by_window):
    return [_wlat_record(w, vs, metric="lat.x") for w, vs in values_by_window]


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
    res = evaluate_slo(_wlats((w, [1e-5] * 50) for w in range(6)), obj)
    assert res.ok
    # a row is the verdict only: count and percentiles are the wlat record's
    assert res.per_window == [
        {"window": w, "bad": 0, "burn": 0.0} for w in range(6)
    ]


def test_evaluate_slo_sustained_burn_fires_rules():
    obj = parse_slo("p99(lat.x) < 1ms")
    # every observation busts the threshold: burn = (1.0)/0.01 = 100x
    res = evaluate_slo(_wlats((w, [5e-3] * 20) for w in range(6)), obj)
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
    wlats = _wlats([(0, [5e-3] * 20), (1, [5e-3] * 20)])
    wlats += _wlats((w, [1e-5] * 20) for w in range(2, 8))
    res = evaluate_slo(wlats, obj)
    assert not res.ok
    assert max(v["window"] for v in res.violations) <= 2


def test_evaluate_slo_spans_clamped_to_run_length():
    obj = parse_slo("p99(lat.x) < 1ms")
    res = evaluate_slo(_wlats([(0, [5e-3] * 10)]), obj)
    assert not res.ok  # one bad window still evaluates (spans clamp to 1)
    assert all(v["long_windows"] == 1 for v in res.violations)


def test_default_rules_shape():
    assert [r.name for r in DEFAULT_RULES] == ["fast", "slow"]
    for r in DEFAULT_RULES:
        assert r.short_windows <= r.long_windows


def test_slo_result_to_dict_carries_spec_and_verdict():
    obj = parse_slo("p99(lat.x) < 1ms")
    res = evaluate_slo(_wlats([(0, [1e-5] * 10)]), obj)
    d = res.to_dict()
    assert d["spec"] == obj.spec and d["ok"] is True
    assert d["window_s"] == 1e-3 and d["violations"] == []


# ---------------------------------------------------------------------------
# degradation timeline
# ---------------------------------------------------------------------------
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
    assert tl["wlats"] == report["wlats"]  # the records, not copies of them
    (mark,) = tl["marks"]
    assert mark["crash_window"] == 2
    assert mark["live_window"] == 3  # crash_time + total = 3.6ms
    assert mark["phases"]["detect"] == pytest.approx(1e-3)


def test_build_timeline_reads_cluster_windows_only():
    # a per-node extension is not counted beside the cluster's window
    cluster, per_node = _wlat_record(0, [1e-5]), _wlat_record(0, [1e-5])
    per_node["node"] = 2
    assert build_timeline({"wlats": [per_node, cluster]})["wlats"] == [cluster]


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
def test_evaluate_report_slos_matches_live_windows(tmp_path):
    """A live report and the same report written and loaded again
    evaluate to the same verdict, row for row."""
    reg = _registry([(w * 1e-3, w % 2, v) for w in range(3)
                     for v in ([1e-5] if w == 0 else [5e-3]) * 20])
    live_report = build_report(reg, {})
    path = tmp_path / "run.jsonl"
    write_jsonl(str(path), live_report)
    obj = parse_slo("p99(lat.x) < 1ms")
    (live,) = evaluate_report_slos(live_report, [obj])
    (offline,) = evaluate_report_slos(load_jsonl(str(path)), [obj])
    assert not live.ok
    assert offline.per_window == live.per_window
    assert offline.violations == live.violations
