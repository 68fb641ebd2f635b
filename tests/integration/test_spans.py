"""Tests for causal span tracing: DAG structure, critical path,
TimeStats reconciliation, and the Chrome trace export."""

import json

import pytest

from repro.observe.tracing import (
    SpanTracer,
    compute_critical_path,
    node_time_totals,
    reconcile_with_time_stats,
    render_critpath_report,
    to_chrome_trace,
)
from repro.observe.tracing.critpath import per_cause_totals, worst_lock_chains
from repro.observe.tracing.spans import WAIT_KINDS
from repro.sim.node import TimeBucket

from tests.conftest import make_app, make_cluster


def traced_run(num_procs=4, ft=True, app="counter", **overrides):
    cluster = make_cluster(num_procs=num_procs, ft=ft, l_fraction=0.1)
    tracer = SpanTracer(cluster)
    result = cluster.run(make_app(app, **overrides))
    return cluster, tracer, result


# ----------------------------------------------------------------------
# span DAG structure
# ----------------------------------------------------------------------
def test_span_dag_basics():
    cluster, tracer, result = traced_run()
    assert tracer.validate() == []
    assert not tracer.open_spans()
    kinds = {s.kind for s in tracer.spans}
    assert {"app", "compute", "fetch", "acquire", "barrier", "flush",
            "ckpt", "ckpt_write"} <= kinds
    # one app span per node, closed at the end of the run
    apps = tracer.spans_by_kind("app")
    assert len(apps) == 4
    assert all(s.status == "closed" for s in apps)
    assert max(s.t1 for s in apps) == pytest.approx(result.wall_time)
    # spans are stamped with engine steps, nondecreasing per span
    assert all(0 <= s.step0 <= s.step1 for s in tracer.spans)
    # parents resolve and are on the same node
    by_sid = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            assert by_sid[s.parent].pid == s.pid


def test_every_message_becomes_an_edge():
    cluster, tracer, result = traced_run()
    assert len(tracer.edges) == result.traffic.total_msgs
    delivered = tracer.delivered_edges()
    # a failure-free LAN run delivers everything that is not still in
    # flight when the last app finishes (e.g. trailing GrantInfo)
    assert len(delivered) >= len(tracer.edges) - cluster.config.num_procs
    for e in delivered:
        assert e.t_recv >= e.t_send
        assert e.src != e.dst


def test_wait_spans_carry_causes():
    cluster, tracer, _ = traced_run()
    waits = [s for s in tracer.spans if s.kind in WAIT_KINDS]
    assert waits, "counter app must produce wait spans"
    caused = [s for s in waits if s.cause_edge is not None]
    assert caused, "some waits must be ended by a message"
    for s in caused:
        e = tracer.edges[s.cause_edge]
        assert e.dst == s.pid
        # the cause arrives while the wait is in progress
        assert s.t0 - 1e-12 <= e.t_recv <= s.t1 + 1e-12


def test_fetch_wait_cause_is_page_reply():
    cluster, tracer, _ = traced_run()
    page_waits = [
        s for s in tracer.spans
        if s.kind == "page_wait" and s.cause_edge is not None
    ]
    assert page_waits
    for s in page_waits:
        e = tracer.edges[s.cause_edge]
        assert e.msg_type in ("PageFetchReply", "DiffMsg")
        assert e.key == s.key


# ----------------------------------------------------------------------
# reconciliation with TimeStats (the tentpole invariant)
# ----------------------------------------------------------------------
def test_wait_spans_reconcile_exactly_with_time_stats():
    cluster, tracer, _ = traced_run()
    assert reconcile_with_time_stats(tracer) == []
    totals = node_time_totals(tracer)
    for host in cluster.hosts:
        stats = host.proto.cpu.stats
        for bucket in (TimeBucket.COMPUTE, TimeBucket.PAGE_WAIT,
                       TimeBucket.LOCK_WAIT, TimeBucket.BARRIER_WAIT):
            assert totals[host.pid][bucket.value] == pytest.approx(
                stats.seconds[bucket], rel=1e-9, abs=1e-12
            )


def test_reconciliation_detects_divergence():
    cluster, tracer, _ = traced_run()
    # poison one node's stats: the cross-check must notice
    cluster.hosts[1].proto.cpu.stats.seconds[TimeBucket.LOCK_WAIT] += 1.0
    errors = reconcile_with_time_stats(tracer)
    assert errors and any("p1 lock_wait" in e for e in errors)


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def test_critical_path_covers_the_run():
    cluster, tracer, result = traced_run()
    segments = compute_critical_path(tracer)
    assert segments
    # chronological, contiguous in time, ending at the wall time
    assert segments[0].t0 == pytest.approx(0.0, abs=1e-12)
    assert segments[-1].t1 == pytest.approx(result.wall_time)
    for a, b in zip(segments, segments[1:]):
        assert b.t0 == pytest.approx(a.t1, abs=1e-9)
    total = sum(s.duration for s in segments)
    assert total == pytest.approx(result.wall_time, rel=1e-6)


def test_critical_path_attributes_checkpoint_disk():
    cluster, tracer, _ = traced_run()
    totals = per_cause_totals(compute_critical_path(tracer))
    # the counter app at L=0.1 checkpoints repeatedly; disk seeks
    # dominate its FT run, and the path must say so
    assert totals.get("ckpt-disk", 0.0) > 0.0
    assert totals.get("compute", 0.0) > 0.0


def test_worst_lock_chains_and_report():
    cluster, tracer, _ = traced_run()
    chains = worst_lock_chains(tracer)
    assert chains
    lock_id, total, n, worst = chains[0]
    assert n >= len(worst) >= 1
    assert total >= sum(s.duration for s in worst)
    report = render_critpath_report(tracer, compute_critical_path(tracer))
    assert "critical path:" in report
    assert "per-cause totals" in report
    assert f"L{lock_id}" in report
    assert "reconciliation: span self-times match" in report


#: per-cause critical-path totals of the counter run below, recorded
#: while the detection window was rebuilt from crash points after the
#: run instead of being recorded as a span; ``recovery`` re-recorded
#: when the manager's handshake reply stopped carrying a second barrier
#: log (0.64 us shorter); the rest re-recorded when exact grant stamps
#: dropped the AcqAcks, whose handler cost at each grantor was on the
#: path (``overhead`` 1.660 -> 1.531 ms; the shifted crash time moves
#: the barrier wait, two fetch waits and ``ckpt-disk``); the fetch and
#: lock waits, ``msg flight PageFetchReq``, ``overhead``, ``recovery``,
#: ``ckpt-disk`` and ``down`` (in its last bit) re-recorded when stamps
#: went sparse on the wire and a diff carried its interval: shorter
#: messages, so waits a few tenths of a us shorter and ``recovery``
#: 11.2015 -> 11.1945 ms
CRASH_RUN_TOTALS = {
    "barrier straggler p1": 2.0880000000000898e-05,
    "barrier straggler p3": 4.1759999999999194e-05,
    "barrier-wait (release from p0)": 6.247999999999909e-05,
    "ckpt-disk": 0.03498044027777778,
    "compute": 0.000900000000000004,
    "down (detection)": 0.049999999999999996,
    "fetch-wait on p0": 0.00024674000000000863,
    "fetch-wait on p1": 9.206999999999987e-05,
    "fetch-wait on p2": 0.00012275999999999975,
    "fetch-wait on p3": 9.206999999999987e-05,
    "lock-wait behind p0": 6.327000000001229e-05,
    "lock-wait behind p1": 4.2209999999999774e-05,
    "lock-wait behind p2": 4.256999999999894e-05,
    "msg flight LockAcquireReq": 4.164000000000424e-05,
    "msg flight PageFetchReq": 0.00034919000000001744,
    "overhead": 0.0015314599999999299,
    "recovery": 0.011194546111111203,
}


def test_detection_window_is_one_recorded_span():
    _, _, free = traced_run()
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    tracer = SpanTracer(cluster)
    cluster.schedule_crash(1, at_time=0.5 * free.wall_time)
    result = cluster.run(make_app("counter"))
    assert result.crashes == 1 and tracer.validate() == []
    (down,) = tracer.spans_by_kind("down")
    (recovery,) = tracer.spans_by_kind("recovery")
    assert (down.pid, down.status, down.detail) == (
        1, "closed", "awaiting failure detection"
    )
    assert down.t0 == cluster.hosts[1].last_crash_time
    assert down.t1 == recovery.t0
    assert down.t1 - down.t0 == pytest.approx(
        cluster.config.failure_detection_delay
    )
    # the abandoned spans end where the down span begins
    assert {s.t1 for s in tracer.abandoned_spans(pid=1)} == {down.t0}
    assert per_cause_totals(compute_critical_path(tracer)) == CRASH_RUN_TOTALS


def test_coordinated_rollback_trace_validates():
    """A global rollback emits no RECOVERY_BEGIN: the victim's respawned
    app span ends its detection window."""
    from repro import DsmConfig
    from repro.baselines import CoordinatedCluster

    free = CoordinatedCluster(DsmConfig(num_procs=4), l_fraction=0.1).run(
        make_app("counter")
    )
    cluster = CoordinatedCluster(DsmConfig(num_procs=4), l_fraction=0.1)
    tracer = SpanTracer(cluster)
    cluster.schedule_crash(1, at_time=0.4 * free.wall_time)
    result = cluster.run(make_app("counter"))
    assert result.crashes == 1 and result.recoveries == 1
    assert tracer.validate() == []
    assert not tracer.spans_by_kind("recovery")
    (down,) = tracer.spans_by_kind("down")
    respawned = [s for s in tracer.spans_by_kind("app", pid=1) if s.t0 >= down.t0]
    assert respawned and respawned[0].t0 == down.t1


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_chrome_trace_structure():
    cluster, tracer, result = traced_run()
    trace = to_chrome_trace(tracer, meta={"app": "counter"})
    # round-trips through JSON (what Perfetto loads)
    trace = json.loads(json.dumps(trace))
    events = trace["traceEvents"]
    assert trace["otherData"]["app"] == "counter"
    phases = {}
    for ev in events:
        phases.setdefault(ev["ph"], []).append(ev)
    # process/thread metadata for every node
    names = {
        (m["pid"], m["args"]["name"])
        for m in phases["M"] if m["name"] == "process_name"
    }
    assert names == {(pid, f"node {pid}") for pid in range(4)}
    # complete events in microseconds of virtual time
    assert phases["X"]
    assert all(ev["dur"] >= 0 for ev in phases["X"])
    assert max(
        ev["ts"] + ev["dur"] for ev in phases["X"]
    ) == pytest.approx(result.wall_time * 1e6)
    # flow events pair up by id: one s and one f per delivered edge
    starts = {ev["id"] for ev in phases["s"]}
    finishes = {ev["id"] for ev in phases["f"]}
    assert starts == finishes
    assert len(starts) == len(tracer.delivered_edges())
    assert all(ev["bp"] == "e" for ev in phases["f"])


def test_chrome_trace_tracks_nest_properly():
    """Per (pid, tid) track, "X" events must nest like a call stack —
    Perfetto renders overlap-without-containment wrong."""
    cluster, tracer, _ = traced_run()
    events = to_chrome_trace(tracer)["traceEvents"]
    eps = 1e-6  # sub-microsecond jitter tolerance (ts is in us)
    tracks = {}
    for ev in events:
        if ev["ph"] == "X":
            tracks.setdefault((ev["pid"], ev["tid"]), []).append(
                (ev["ts"], ev["ts"] + ev["dur"])
            )
    for intervals in tracks.values():
        # equal starts: enclosing (longer) span first, like a call stack
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        stack = []
        for t0, t1 in intervals:
            while stack and stack[-1] <= t0 + eps:
                stack.pop()
            if stack:
                assert t1 <= stack[-1] + eps, "overlap without containment"
            stack.append(t1)


# ----------------------------------------------------------------------
# validation catches malformed DAGs
# ----------------------------------------------------------------------
def test_validate_flags_unclosed_spans():
    cluster, tracer, _ = traced_run()
    tracer._open_span(0, "fetch", "synthetic")
    errors = tracer.validate()
    assert any("unclosed span" in e for e in errors)


def test_validate_flags_capacity_overflow(monkeypatch):
    from repro.observe.tracing import spans

    monkeypatch.setattr(spans, "MAX_SPANS", 10)
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    tracer = SpanTracer(cluster)
    cluster.run(make_app("counter"))
    assert tracer.dropped_spans > 0
    assert any("capacity exceeded" in e for e in tracer.validate())


def test_tracing_composes_with_flat_tracer_and_observer():
    """All four observation layers ride the same event bus, and the
    order they subscribed in does not change what any of them sees."""
    import dataclasses

    from repro.observe import ClusterObserver, InvariantMonitor
    from repro.sim.trace import TEXT, timeline

    attachers = {
        "flat": lambda cluster: timeline(
            cluster.engine, {c for c, _ in TEXT.values()}
        ),
        "spans": SpanTracer,
        "obs": lambda cluster: ClusterObserver(cluster, interval=1e-3),
        "monitor": InvariantMonitor,
    }

    def run(order):
        cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
        seen = {name: attachers[name](cluster) for name in order}
        cluster.run(make_app("counter"))
        assert not seen["monitor"].finish()
        assert seen["spans"].validate() == []
        registry = seen["obs"].registry
        return {
            "trace": seen["flat"],
            "spans": [dataclasses.asdict(s) for s in seen["spans"].spans],
            "edges": [dataclasses.asdict(e) for e in seen["spans"].edges],
            "checks": seen["monitor"].checks,
            "ring": seen["monitor"].recorder.dump(),
            "series": registry.series,
            "latencies": {
                name: {n: h.to_dict() for n, h in registry.latencies_by_name(name).items()}
                for name in registry.latency_names()
            },
        }

    forward = run(["flat", "spans", "obs", "monitor"])
    assert any(e.kind == "ckpt_write" for e in forward["trace"])
    assert any(s["kind"] == "ckpt_write" for s in forward["spans"])
    assert forward["series"] and forward["checks"]["fifo"] > 0
    assert run(["monitor", "obs", "spans", "flat"]) == forward
