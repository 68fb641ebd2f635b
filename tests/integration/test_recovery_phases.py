"""Recovery-phase anatomy: every completed recovery decomposes into
first-class phase durations (detect / restore / handshake / replay /
resume) recorded per incarnation on the host, fed to the metrics
registry and nested as child spans under the recovery span.

The instrumentation must also be invisible: phase recording runs
whether or not an observer is attached, and attaching one must not
change the virtual-time outcome (the golden determinism suite pins
that globally; here we check the records themselves are identical).
"""

import pytest

from repro.core import FtConfig
from repro.observe import ClusterObserver, SpanTracer

from tests.conftest import make_app, make_cluster


def crash_run(victim=2, frac=0.4, n=4, observer=False, tracer=False, **kw):
    golden = make_cluster(num_procs=n, ft=True, **kw)
    T = golden.run(make_app("counter")).wall_time
    cluster = make_cluster(num_procs=n, ft=True, **kw)
    obs = ClusterObserver(cluster, interval=1e-3) if observer else None
    spans = SpanTracer(cluster) if tracer else None
    cluster.schedule_crash(victim, at_time=T * frac)
    res = cluster.run(make_app("counter"))
    return cluster, res, obs, spans


def test_phases_recorded_and_sum_to_total():
    cluster, res, _, _ = crash_run()
    assert res.crashes == 1 and res.recoveries == 1
    recs = [r for h in cluster.hosts for r in h.recovery_phases]
    assert len(recs) == 1
    rec = recs[0]
    assert rec["incarnation"] == 1
    # the detection phase is exactly the configured fail-stop detection
    # delay: recovery begins one delay after the crash
    assert rec["detect"] == pytest.approx(
        cluster.config.failure_detection_delay
    )
    for phase in ("restore", "handshake", "replay"):
        assert rec[phase] >= 0.0
    # the live switch (RecoveryDone fan-out, lock repair, queue drain)
    # runs in zero virtual time
    assert rec["resume"] == 0.0
    assert rec["total"] == pytest.approx(
        rec["detect"] + rec["restore"] + rec["handshake"] + rec["replay"]
        + rec["resume"]
    )
    assert rec["restore"] > 0.0  # the stable-storage read charges time


def test_phases_survive_on_host_across_incarnations():
    cluster, res, _, _ = crash_run()
    victim_host = next(h for h in cluster.hosts if h.recovery_phases)
    assert victim_host.crashed_count == 1
    # crash the same node again mid-flight in a longer run? covered by
    # the sweep tests; here: the record is host-level, not proc-level,
    # so it survived the crash-kill of the old proc generation
    assert victim_host.recovery_phases[0]["crash_time"] < res.wall_time


def test_recovery_latencies_reach_registry():
    cluster, _, obs, _ = crash_run(observer=True)
    reg = obs.registry
    lat = reg.merged_latency("lat.recovery")
    assert lat is not None and lat.count == 1
    ((victim, rec),) = [
        (h.pid, r) for h in cluster.hosts for r in h.recovery_phases
    ]
    # the end-to-end estimate brackets the recorded total within the
    # engine's relative error (clamped to true min/max, so exact here)
    assert lat.percentile(50.0) == pytest.approx(rec["total"])
    for phase in ("detect", "restore", "handshake", "replay"):
        h = reg.merged_latency(f"lat.recovery.{phase}")
        assert h is not None and h.count == 1
    # and the observer keeps the record itself, tagged with the victim
    assert obs.recovery_records == [dict(rec, pid=victim)]


def test_rphase_spans_nest_under_recovery_span():
    _, _, _, spans = crash_run(tracer=True)
    recovery = [s for s in spans.spans if s.kind == "recovery"]
    assert len(recovery) == 1
    rspan = recovery[0]
    children = [
        s for s in spans.spans
        if s.kind == "rphase" and s.parent == rspan.sid
    ]
    assert {s.detail for s in children} == {"restore", "handshake", "replay"}
    for child in children:
        assert child.status == "closed"
        assert child.t0 >= rspan.t0 - 1e-12
        assert child.t1 <= rspan.t1 + 1e-12
    # phases are disjoint and ordered
    ordered = sorted(children, key=lambda s: s.t0)
    names = [s.detail for s in ordered]
    assert names == ["restore", "handshake", "replay"]
    for a, b in zip(ordered, ordered[1:]):
        assert a.t1 <= b.t0 + 1e-12


def test_phase_records_identical_with_and_without_observer():
    c1, _, _, _ = crash_run(observer=False)
    c2, _, _, _ = crash_run(observer=True)
    r1 = [r for h in c1.hosts for r in h.recovery_phases]
    r2 = [r for h in c2.hosts for r in h.recovery_phases]
    assert r1 == r2  # observation is read-only: bit-identical anatomy


def test_replica_fetch_counters_with_replication():
    cluster, res, _, _ = crash_run(ft_config=FtConfig(replicate=True))
    assert res.recoveries == 1
    rec = [r for h in cluster.hosts for r in h.recovery_phases][0]
    # with the buddy tier on, restore may pull from the replica instead
    # of stable storage; either way the counters are consistent
    assert rec["replica_fetches"] >= 0
    if rec["replica_fetches"]:
        assert rec["replica_fetch_s"] > 0.0
    else:
        assert rec["replica_fetch_s"] == 0.0
