"""Unit tests for the observability layer (metrics registry + sampler)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe import (
    ClusterObserver,
    MetricsRegistry,
    build_report,
    validate_report,
    write_jsonl,
)
from repro.observe.registry import CLUSTER_NODE, Counter
from repro.observe.report import load_jsonl
from tests.conftest import make_app, make_cluster


# ---------------------------------------------------------------------------
# metric primitives
# ---------------------------------------------------------------------------
def test_counter_monotonic():
    c = Counter("c", 0)
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError, match="monotonic"):
        c.inc(-1)
    assert c.value == 3.5


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_interns_metrics():
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    assert reg.counter("a", 1) is reg.counter("a", 1)
    assert reg.counter("a", 1) is not reg.counter("a", 2)
    assert reg.latency("c", 1) is reg.latency("c", 1)
    assert reg.latency("c", 1) is not reg.latency("c", 2)


def test_registry_sample_snapshots_counters_and_gauges():
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    c = reg.counter("hits", 3)
    reg.gauges(("depth",), 3, lambda: (c.value * 10,))
    c.inc(2)
    reg.sample(0.5)
    c.inc()
    reg.sample(1.5)
    assert reg.get_series("hits", 3) == [(0.5, 2.0), (1.5, 3.0)]
    assert reg.get_series("depth", 3) == [(0.5, 20.0), (1.5, 30.0)]
    assert reg.samples_taken == 2
    assert reg.series_by_name("hits") == {3: [(0.5, 2.0), (1.5, 3.0)]}
    assert "hits" in reg.names() and "depth" in reg.names()


def test_one_key_is_one_kind_of_series():
    """A key has one column: sampling it twice, or recording into a
    sampled series, used to interleave points silently."""
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    reg.counter("a", 1)
    with pytest.raises(ValueError, match=r"\('a', 1\) already has a series"):
        reg.gauges(("a",), 1, lambda: (0,))
    reg.gauges(("b",), 1, lambda: (0,))
    with pytest.raises(ValueError, match=r"\('b', 1\) already has a series"):
        reg.counter("b", 1)
    with pytest.raises(ValueError, match=r"\('b', 1\) already has a series"):
        reg.gauges(("b", "c"), 1, lambda: (0, 0))
    assert reg.counter("a", 1) is reg.counter("a", 1)
    assert reg.names() == ["a", "b"]


def test_record_onto_a_sampled_key_is_an_error():
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    reg.counter("a", 1)
    with pytest.raises(ValueError, match=r"\('a', 1\) is sampled"):
        reg.record("a", 1, 0.5, 1.0)
    reg.record("r", 1, 0.5, 1.0)
    with pytest.raises(ValueError, match=r"\('r', 1\) already has a series"):
        reg.gauges(("r",), 1, lambda: (0,))
    reg.sample(1.0)
    assert reg.get_series("a", 1) == [(1.0, 0.0)]
    assert reg.get_series("r", 1) == [(0.5, 1.0)]


def test_gauge_row_reader_must_fill_every_column():
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    reg.gauges(("a", "b"), 0, lambda: (1,))
    with pytest.raises(ValueError, match="filled 1 of 2 columns"):
        reg.sample(0.0)


# ---------------------------------------------------------------------------
# differential oracle: the tuple-list storage the columns replaced
# ---------------------------------------------------------------------------
class TupleListModel:
    """``sample``/``record`` as they were: one ``(x, value)`` tuple per
    point, appended to a per-key list created on first use."""

    def __init__(self):
        self.counters, self.gauges, self.series = {}, {}, {}

    def record(self, name, node, x, value):
        self.series.setdefault((name, node), []).append((x, float(value)))

    def sample(self, x):
        for key, c in self.counters.items():
            self.series.setdefault(key, []).append((x, c.value))
        for key, read in self.gauges.items():
            self.series.setdefault(key, []).append((x, float(read())))

    def names(self):
        keys = set(self.series) | set(self.counters) | set(self.gauges)
        return sorted({name for name, _ in keys})

    def series_by_name(self, name):
        return {
            node: pts for (n, node), pts in sorted(self.series.items()) if n == name
        }

    def report_series(self):
        return [
            {
                "record": "series", "metric": name, "node": node,
                "points": [[float(x), float(v)] for x, v in pts],
            }
            for (name, node), pts in sorted(self.series.items())
        ]


NODES = (0, 1, CLUSTER_NODE)
#: each name is one kind of series, as the registry now insists
_op = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(["c0", "c1"]),
              st.sampled_from(NODES), st.integers(0, 9)),
    st.tuples(st.just("set"), st.sampled_from(["g0", "g1"]),
              st.sampled_from(NODES), st.integers(-5, 5)),
    st.tuples(st.just("row"), st.just("row"), st.sampled_from(NODES),
              st.integers(0, 9)),
    st.tuples(st.just("record"), st.sampled_from(["r0", "r1"]),
              st.sampled_from(NODES), st.integers(0, 9)),
    st.tuples(st.just("sample"), st.just(""), st.just(0), st.just(0)),
)


@given(st.lists(_op, max_size=60))
@settings(max_examples=150, deadline=None)
def test_columnar_registry_matches_tuple_list_model(ops):
    """Late registration, ``inc``, ``set``, ``sample`` and ``record`` in
    any order read back as the per-point tuple lists did."""
    reg, model = MetricsRegistry(lambda: 0.0, 1e-3), TupleListModel()
    rows = {}  # node -> the live state behind its two-column reader
    cells = {}  # (name, node) -> the value behind its one-column reader
    x = 0
    for op, name, node, n in ops:
        x += 1
        if op == "inc":
            reg.counter(name, node).inc(n)
            model.counters.setdefault((name, node), Counter(name, node)).inc(n)
        elif op == "set":
            if (name, node) not in cells:
                cell = cells[name, node] = [0]
                reg.gauges((name,), node, lambda c=cell: (c[0],))
                model.gauges[name, node] = lambda c=cell: c[0]
            cells[name, node][0] = n
        elif op == "row":
            if node not in rows:
                state = rows[node] = {"a": 0, "b": 0.5}
                reg.gauges(
                    ("row.a", "row.b"), node,
                    lambda s=state: (s["a"], s["b"]),
                )
                for col in "ab":
                    model.gauges["row." + col, node] = lambda s=state, c=col: s[c]
            rows[node]["a"] += n
            rows[node]["b"] *= 1.5
        elif op == "record":
            reg.record(name, node, x, n)
            model.record(name, node, x, n)
        else:
            reg.sample(x / 8)
            model.sample(x / 8)
    assert reg.names() == model.names()
    assert reg.series == model.series
    for name in model.names():
        assert reg.series_by_name(name) == model.series_by_name(name)
        for node in NODES:
            assert reg.get_series(name, node) == model.series.get((name, node), [])
    assert build_report(reg, {})["series"] == model.report_series()
    assert reg.samples_taken == sum(op[0] == "sample" for op in ops)


# ---------------------------------------------------------------------------
# sampler cadence
# ---------------------------------------------------------------------------
def test_ticker_samples_at_interval():
    cluster = make_cluster(num_procs=4, ft=True)
    interval = 1e-3
    obs = ClusterObserver(cluster, interval=interval, sample_on_barrier=False)
    cluster.run(make_app("counter"))
    xs = [x for x, _ in obs.registry.get_series("sim.events", CLUSTER_NODE)]
    assert len(xs) >= 3
    for a, b in zip(xs, xs[1:]):
        assert b - a == pytest.approx(interval)


def test_ticker_rejects_bad_interval():
    cluster = make_cluster(num_procs=2, ft=False)
    with pytest.raises(ValueError, match="interval"):
        ClusterObserver(cluster, interval=0.0)


def test_barrier_cadence_one_sample_per_episode():
    cluster = make_cluster(num_procs=4, ft=True)
    obs = ClusterObserver(cluster, interval=None, sample_on_barrier=True)
    cluster.run(make_app("counter"))
    barriers = obs.registry.series_by_name("dsm.barriers")
    # every process crosses every barrier, but each episode samples once
    episodes = max(v for _, v in barriers[0])
    assert obs.registry.samples_taken == episodes
    xs = [x for x, _ in barriers[0]]
    assert xs == sorted(xs)


def test_ckpts_retained_series_sampled_per_node():
    """The ``ft.ckpts_retained`` gauge (the paper's bounded-window claim
    made observable) must produce a per-node series: positive from the
    first sample (the virtual checkpoint 0 is always retained), never
    absurdly large, and present for every node."""
    cluster = make_cluster(num_procs=4, ft=True)
    obs = ClusterObserver(cluster, interval=1e-3, sample_on_barrier=True)
    cluster.run(make_app("counter"))
    obs.sample()
    series = obs.registry.series_by_name("ft.ckpts_retained")
    assert sorted(series) == [0, 1, 2, 3]
    for points in series.values():
        assert points, "node sampled no ft.ckpts_retained points"
        assert all(1 <= v <= 8 for _, v in points)
    # at least one node must have held >1 checkpoint at some sample
    # (the uncoordinated window opens between commit and peer learning)
    assert any(v > 1 for pts in series.values() for _, v in pts)


def test_replica_series_sampled_per_node():
    """The ``ft.replica_bytes``/``ft.replica_lag`` pair (KEY_SERIES for
    replication-enabled runs) must produce per-node series: every node
    both holds its buddy's replica bytes and reports its own replication
    lag, and lag returns to zero once the buddy acks."""
    from repro.core import FtConfig

    cluster = make_cluster(
        num_procs=4, ft=True, ft_config=FtConfig(replicate=True)
    )
    obs = ClusterObserver(cluster, interval=1e-3, sample_on_barrier=True)
    cluster.run(make_app("counter"))
    obs.sample()
    for metric in ("ft.replica_bytes", "ft.replica_lag"):
        series = obs.registry.series_by_name(metric)
        assert sorted(series) == [0, 1, 2, 3], metric
        for pid, points in series.items():
            assert points, f"p{pid} sampled no {metric} points"
    bytes_series = obs.registry.series_by_name("ft.replica_bytes")
    # replication happened: some node held a nonempty replica
    assert any(v > 0 for pts in bytes_series.values() for _, v in pts)
    lag_series = obs.registry.series_by_name("ft.replica_lag")
    for pid, pts in lag_series.items():
        values = [v for _, v in pts]
        # lag is a small non-negative checkpoint count that both opens
        # (a commit starts a transfer) and drains (the buddy acks) —
        # never monotone growth, which would mean acks are lost
        assert all(0 <= v <= 4 for v in values), f"p{pid} lag {values}"
        assert any(v > 0 for v in values), f"p{pid} never lagged"
        opened = values.index(next(v for v in values if v > 0))
        assert any(v == 0 for v in values[opened:]), f"p{pid} never drained"


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------
def test_report_roundtrip_and_validation(tmp_path):
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    reg.counter("ft.log_volatile_bytes", 0).inc(10)
    reg.counter("ft.log_saved_bytes", 0).inc(4)
    reg.counter("dsm.diff_bytes_sent", 0).inc(2)
    reg.gauges(("ft.ckpts_retained",), 0, lambda: (2.0,))
    reg.latency("lat.fetch", 0).observe(5e-5)
    reg.latency("lat.acquire", 0).observe(2e-4)
    reg.latency("lat.barrier", 1).observe(1e-3)
    reg.sample(0.25)
    report = build_report(reg, {"app": "unit", "ft": True})
    assert report["header"]["schema"] == 4
    assert validate_report(report) == []
    # every observation fell in window 0 of the clock, which stood still
    assert [(r["metric"], r["window"]) for r in report["wlats"]] == [
        ("lat.acquire", 0), ("lat.barrier", 0), ("lat.fetch", 0),
    ]
    assert report["header"]["window_s"] == 1e-3
    # every op class grows a cluster-merged record alongside the
    # per-node ones
    merged = {r["metric"] for r in report["lats"] if r["node"] == CLUSTER_NODE}
    assert {"lat.fetch", "lat.acquire", "lat.barrier"} <= merged
    path = tmp_path / "report.jsonl"
    write_jsonl(str(path), report)
    again = load_jsonl(str(path))
    assert again["header"]["app"] == "unit"
    assert again["series"] == report["series"]
    assert again["lats"] == report["lats"]
    assert validate_report(again) == []


def test_load_jsonl_rejects_other_schemas(tmp_path):
    """A report is schema 4 or rejected: old artifacts are re-recorded,
    not converted."""
    report = build_report(MetricsRegistry(lambda: 0.0, 1e-3), {"app": "unit"})
    path = tmp_path / "old.jsonl"
    for schema in (2, 3):
        report["header"]["schema"] = schema
        write_jsonl(str(path), report)
        with pytest.raises(
            ValueError,
            match=f"unsupported run-report schema {schema}: re-record with "
            "`repro observe`",
        ):
            load_jsonl(str(path))


def test_validate_report_flags_missing_series():
    report = build_report(MetricsRegistry(lambda: 0.0, 1e-3), {"app": "unit", "ft": True})
    errors = validate_report(report)
    assert any("ft.log_volatile_bytes" in e for e in errors)
    # a base-protocol report (its header says no ft) only requires the
    # DSM series
    errors = validate_report(build_report(MetricsRegistry(lambda: 0.0, 1e-3), {"app": "unit"}))
    assert any("dsm.diff_bytes_sent" in e for e in errors)
    assert all("ft." not in e for e in errors)


def test_load_jsonl_rejects_unknown_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "mystery"}\n')
    with pytest.raises(ValueError, match="mystery"):
        load_jsonl(str(path))
    # schema 3's fixed-bucket wait histograms are gone: a ``hist`` line is
    # unknown, even under a current header
    write_jsonl(str(path), build_report(MetricsRegistry(lambda: 0.0, 1e-3), {"app": "unit"}))
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(1, '{"count": 1, "metric": "dsm.fetch_wait_s", "node": 0, '
                    '"record": "hist"}\n')
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="unknown run-report record: .*'hist'"):
        load_jsonl(str(path))


# ---------------------------------------------------------------------------
# the records schema 3 added: windowed latency, recovery and SLO
# ---------------------------------------------------------------------------
def _windowed_registry():
    """A registry collecting windows off a fake virtual clock."""
    now = {"t": 0.0}
    reg = MetricsRegistry(lambda: now["t"], 1e-3)
    reg.counter("ft.log_volatile_bytes", 0).inc(10)
    reg.counter("ft.log_saved_bytes", 0).inc(4)
    reg.counter("dsm.diff_bytes_sent", 0).inc(2)
    reg.gauges(("ft.ckpts_retained",), 0, lambda: (2.0,))
    for t, v in [(0.1e-3, 5e-5), (0.2e-3, 2e-4), (2.5e-3, 8e-4)]:
        now["t"] = t
        reg.latency("lat.request", 0).observe(v)
    reg.latency("lat.fetch", 0).observe(5e-5)
    reg.latency("lat.acquire", 0).observe(2e-4)
    reg.latency("lat.barrier", 1).observe(1e-3)
    reg.sample(0.25)
    return reg


def test_schema3_roundtrip_with_windows_recoveries_and_slos(tmp_path):
    from repro.observe import evaluate_report_slos, parse_slo

    reg = _windowed_registry()
    recovery = {
        "pid": 1, "crash_time": 1.2e-3, "total": 0.9e-3,
        "detect": 0.5e-3, "restore": 0.1e-3, "handshake": 0.2e-3,
        "replay": 0.1e-3,
    }
    meta = {"app": "unit", "ft": True}
    base = build_report(reg, meta, recoveries=[recovery])
    slos = evaluate_report_slos(base, [parse_slo("p99(lat.request)<50ms")])
    report = build_report(reg, meta, recoveries=[recovery], slos=slos)
    assert report["header"]["schema"] == 4
    assert report["header"]["window_s"] == pytest.approx(1e-3)
    assert validate_report(report) == []
    # wlat records are cluster-merged only, one per non-empty window
    req = [r for r in report["wlats"] if r["metric"] == "lat.request"]
    assert [r["window"] for r in req] == [0, 2]
    assert all(r["node"] == CLUSTER_NODE for r in report["wlats"])
    assert req[0]["count"] == 2 and req[1]["count"] == 1

    path = tmp_path / "schema3.jsonl"
    write_jsonl(str(path), report)
    again = load_jsonl(str(path))
    assert validate_report(again) == []
    assert again["wlats"] == report["wlats"]
    assert again["recoveries"] == report["recoveries"]
    assert [s["ok"] for s in again["slos"]] == [True]


def test_validate_flags_windowed_header_without_wlats():
    reg = _windowed_registry()
    report = build_report(reg, {"app": "unit"})
    report["wlats"] = []
    errors = validate_report(report)
    assert any("no wlat records" in e for e in errors)


def test_validate_flags_incomplete_wlat_and_recovery_records():
    reg = _windowed_registry()
    report = build_report(reg, {"app": "unit"}, recoveries=[{"pid": 0}])
    del report["wlats"][0]["window_s"]
    errors = validate_report(report)
    assert any("wlat record 0 missing" in e for e in errors)
    assert any("recovery record 0 missing" in e for e in errors)


# ---------------------------------------------------------------------------
# report reuse: builds over unchanged data read the same columns and records
# ---------------------------------------------------------------------------
def _points_of(report, metric):
    (rec,) = [r for r in report["series"] if r["metric"] == metric]
    return rec["points"]


def test_two_builds_with_nothing_between_are_equal():
    from repro.observe import evaluate_report_slos, parse_slo

    reg = _windowed_registry()
    first = build_report(reg, {"app": "unit"})
    slos = evaluate_report_slos(first, [parse_slo("p99(lat.request)<50ms")])
    second = build_report(reg, {"app": "unit"}, slos=slos)
    assert second.pop("slos") and first.pop("slos") == []
    assert second == first
    # each build has its own view of the columns (its length is its own);
    # the wlat records are one set while no observation came between
    assert _points_of(second, "ft.ckpts_retained") is not _points_of(
        first, "ft.ckpts_retained"
    )
    assert second["wlats"][0] is first["wlats"][0]


def test_sample_between_builds_shows_in_the_second_report_only():
    reg = _windowed_registry()
    first = build_report(reg, {"app": "unit"})
    reg.counter("dsm.diff_bytes_sent", 0).inc(5)
    reg.sample(0.5)
    second = build_report(reg, {"app": "unit"})
    assert _points_of(first, "dsm.diff_bytes_sent") == [[0.25, 2.0]]
    assert _points_of(second, "dsm.diff_bytes_sent") == [[0.25, 2.0], [0.5, 7.0]]
    assert (first["summary"]["samples"], second["summary"]["samples"]) == (1, 2)
    assert second["wlats"] == first["wlats"]


def test_record_between_builds_shows_in_the_second_report_only():
    reg = _windowed_registry()
    reg.record("ft.log_disk_bytes", 0, 1, 100)
    first = build_report(reg, {"app": "unit"})
    reg.record("ft.log_disk_bytes", 0, 2, 150)
    reg.record("sim.events_per_vsec", -1, 0.3, 2)
    second = build_report(reg, {"app": "unit"})
    assert _points_of(first, "ft.log_disk_bytes") == [[1.0, 100.0]]
    assert _points_of(second, "ft.log_disk_bytes") == [[1.0, 100.0], [2.0, 150.0]]
    assert not [r for r in first["series"] if r["metric"] == "sim.events_per_vsec"]
    assert _points_of(second, "sim.events_per_vsec") == [[0.3, 2.0]]


def test_latency_observed_between_builds_moves_lat_and_wlat():
    reg = _windowed_registry()
    first = build_report(reg, {"app": "unit"})
    reg.latency("lat.request", 0).observe(3e-4)  # the clock stands in window 2

    def request(report, key):
        return [
            (r.get("window"), r["count"], r["max"])
            for r in report[key]
            if r["metric"] == "lat.request" and r["node"] == CLUSTER_NODE
        ]

    second = build_report(reg, {"app": "unit"})
    assert request(first, "lats") == [(None, 3, 8e-4)]
    assert request(second, "lats") == [(None, 4, 8e-4)]
    assert request(first, "wlats") == [(0, 2, 2e-4), (2, 1, 8e-4)]
    assert request(second, "wlats") == [(0, 2, 2e-4), (2, 2, 8e-4)]
    other = [r for r in first["wlats"] if r["metric"] != "lat.request"]
    assert other == [r for r in second["wlats"] if r["metric"] != "lat.request"]


# ---------------------------------------------------------------------------
# a series is a view of the registry's columns: semantics and allocation
# ---------------------------------------------------------------------------
def test_series_view_reads_as_the_pair_lists_it_replaced(tmp_path):
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    early = reg.counter("early", 0)
    for i in range(3):
        early.inc(i)
        reg.sample(0.5 * i)
    reg.gauges(("late",), 0, lambda: (7.0,))  # registers at sample 3: start > 0
    reg.sample(1.5)
    reg.counter("not.yet", 0)
    pts = reg.get_series("early", 0)
    pairs = [[0.0, 0.0], [0.5, 1.0], [1.0, 3.0], [1.5, 3.0]]
    assert len(pts) == 4 and list(pts) == pairs
    assert pts[0] == [0.0, 0.0] and pts[-1] == [1.5, 3.0] and pts[-4] == pts[0]
    assert pts[1:3] == pairs[1:3] and pts[::-2] == pairs[::-2] and pts[5:] == []
    for i in (4, -5):
        with pytest.raises(IndexError):
            pts[i]
    assert pts == pairs and pairs == pts and pts == [tuple(p) for p in pairs]
    assert pts != pairs[:3] and pts != [[0.0, 0.0]] * 4 and pts != 4
    assert pts == reg.get_series("early", 0) and [1.0, 3.0] in pts
    assert repr(pts) == repr(pairs)
    assert reg.get_series("late", 0) == [[1.5, 7.0]]
    # an empty or unknown series is an empty view, and no report record
    for name in ("not.yet", "unknown"):
        empty = reg.get_series(name, 0)
        assert len(empty) == 0 and not empty and empty == [] and list(empty) == []
    assert list(reg.series) == [("early", 0), ("late", 0)]

    # a report built before further samples keeps its length and values
    report = build_report(reg, {})
    early.inc(10)
    reg.sample(2.0)
    reg.sample(2.5)
    assert len(pts) == 4 and pts == pairs and pts[-1] == [1.5, 3.0]
    assert [rec["points"] for rec in report["series"]] == [pairs, [[1.5, 7.0]]]
    assert reg.get_series("not.yet", 0) == [[2.0, 0.0], [2.5, 0.0]]
    assert reg.get_series("early", 0)[4:] == [[2.0, 13.0], [2.5, 13.0]]
    assert reg.get_series("late", 0) == [[1.5, 7.0], [2.0, 7.0], [2.5, 7.0]]
    path = tmp_path / "views.jsonl"
    write_jsonl(str(path), report)
    loaded = load_jsonl(str(path))
    assert loaded["series"] == report["series"]
    assert report["series"] == loaded["series"]
    assert loaded["series"][0]["points"] == pairs


def test_reports_hold_views_not_boxed_pairs(tmp_path):
    """64 series x 2,000 samples: the columns hold them in 16 B a point.
    Boxed as ``[x, v]`` lists (two floats, a list, a slot) a point is about
    129 B, which two ``build_report`` calls used to keep alive for as long
    as the reports lived; and writing the JSONL needs one series' pairs at
    a time, not the report's 64: at its peak the writer holds those and
    CPython's encoder chunks for that one line (1.4 series' worth on 3.11,
    a ``str`` per float), so a second series alive beside them fails it."""
    import tracemalloc

    n_series, n_samples = 64, 2_000
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    tick = [0]
    reg.gauges(
        [f"m{i:02d}" for i in range(n_series)], 0,
        lambda: [tick[0] * 1.5 + i for i in range(n_series)],
    )
    for tick[0] in range(n_samples):
        reg.sample(tick[0] * 1e-3)
    points = n_series * n_samples

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        reports = [build_report(reg, {"app": "unit"}) for _ in range(2)]
        retained = tracemalloc.get_traced_memory()[0] - before
        assert retained < 8 * points, f"{retained / points:.1f} B retained per point"

        before, _ = tracemalloc.get_traced_memory()
        pairs = list(reports[0]["series"][0]["points"])
        one_series = tracemalloc.get_traced_memory()[0] - before
        assert one_series > 100 * n_samples  # the boxed form is what it was
        del pairs

        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        write_jsonl(str(tmp_path / "big.jsonl"), reports[1])
        peak = tracemalloc.get_traced_memory()[1] - before
        assert peak < 3 * one_series, f"{peak} B at peak, one series is {one_series}"
    finally:
        tracemalloc.stop()
    assert sum(len(rec["points"]) for rec in reports[0]["series"]) == points
