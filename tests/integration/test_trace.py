"""Tests for the flat run timeline."""

from collections import Counter

from repro.sim.trace import SEND, timeline

from tests.conftest import make_app, make_cluster


def test_tracer_records_protocol_events():
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.05)
    events = timeline(
        cluster.engine, {"send", "lock", "barrier", "flush", "fetch", "ckpt"}
    )
    cluster.run(make_app("counter"))
    counts = Counter(e.kind for e in events)
    assert counts["send"] > 0
    assert counts["lock"] >= 4 * 3  # every proc acquires per step
    assert counts["barrier"] > 0
    assert counts["flush"] > 0
    assert counts["fetch"] > 0
    assert counts["ckpt"] > 0
    # timestamps are nondecreasing
    times = [e.time for e in events]
    assert times == sorted(times)
    # a send keeps its destination, type name and category, never the
    # message: a trace pins no payload, and its line renders when read
    send = next(e for e in events if e.kind == "send")
    dst, name, category = send.args
    assert send.event == SEND and all(type(a) in (int, str) for a in send.args)
    assert send.detail == f"-> p{dst}  {name} ({category})"


def test_tracer_kind_filtering():
    cluster = make_cluster(num_procs=4)
    events = timeline(cluster.engine, {"lock"})
    cluster.run(make_app("counter"))
    assert events and {e.kind for e in events} == {"lock"}


def test_tracer_records_failures():
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.2)
    T = make_cluster(num_procs=4, ft=True, l_fraction=0.2).run(
        make_app("counter")
    ).wall_time
    events = timeline(cluster.engine, {"failure"})
    cluster.schedule_crash(2, at_time=T * 0.4)
    cluster.run(make_app("counter"))
    assert [e.kind for e in events] == ["failure"]


def test_tracer_render_and_cap(capsys):
    """``repro run --trace`` prints the first ``--trace-limit`` events of
    the run's timeline and counts the rest on one line."""
    from repro import __main__ as cli

    argv = ["counter", "--procs", "4", "--trace", "lock", "--trace-limit", "5"]
    parser = cli.build_parser()
    run = cli.RunBuilder(parser, parser.parse_args(argv), ft=False)
    cluster = run.cluster()
    events = timeline(cluster.engine, {"lock"})
    run.run(cluster)
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.split("\ntrace:\n")[1].splitlines()
    assert lines == [e.render() for e in events[:5]] + [
        f"... {len(events) - 5} more events"
    ]


def test_render_pins_a_setup_time_step_zero_line():
    """Events emitted while a run sets up, before the engine runs any
    event, are step 0: replication's first retarget and sync are ``#0``."""
    from repro.core import FtConfig

    cluster = make_cluster(
        num_procs=4, ft=True, ft_config=FtConfig(replicate=True)
    )
    events = timeline(cluster.engine, {"repl"})
    cluster.run(make_app("counter"))
    assert [e.render() for e in events[:2]] == [
        "    0.0000 ms #0       p0  repl       retarget old=None new=1 gen=1",
        "    0.0000 ms #0       p0  repl       sync seqno=0 dst=1",
    ]


# ----------------------------------------------------------------------
# tracing across crash/recovery
# ----------------------------------------------------------------------
def _ft_runtime():
    return make_cluster(num_procs=4, ft=True, l_fraction=0.1).run(
        make_app("counter")
    ).wall_time


def test_tracer_keeps_a_recovered_nodes_protocol_events():
    """Events come from the code that runs, not from wrappers around the
    first incarnation: a recovered node keeps announcing its locks,
    barriers and flushes (the wrapping tracer logged none of them)."""
    protocol_kinds = ("lock", "barrier", "flush", "fetch", "ckpt")
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    events = timeline(cluster.engine, {"recovery", *protocol_kinds})
    cluster.schedule_crash(1, at_time=_ft_runtime() * 0.5)
    result = cluster.run(make_app("counter"))
    assert result.crashes == 1 and result.recoveries == 1
    live = next(
        i for i, e in enumerate(events)
        if e.pid == 1 and e.kind == "recovery" and e.detail == "live"
    )
    after = {pid: [] for pid in range(4)}
    for e in events[live:]:
        if e.kind in protocol_kinds:
            after[e.pid].append(e.kind)
    for kind in ("lock", "barrier", "flush"):
        assert kind in after[1], f"recovered p1 logged no {kind} event"
    # the victim finishes the same steps as everyone else
    assert len(after[1]) >= min(len(after[p]) for p in (0, 2, 3)) > 0


def test_spans_on_crashed_node_are_abandoned_not_leaked():
    from repro.observe.tracing import SpanTracer

    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    tracer = SpanTracer(cluster)
    cluster.schedule_crash(2, at_time=_ft_runtime() * 0.4)
    result = cluster.run(make_app("counter"))
    assert result.crashes == 1 and result.recoveries == 1
    # nothing leaked open, and the victim's in-progress spans at the
    # crash instant were closed as abandoned
    assert tracer.validate() == []
    assert not tracer.open_spans()
    abandoned = tracer.abandoned_spans(pid=2)
    assert abandoned
    (down,) = tracer.spans_by_kind("down", pid=2)
    crash_t = down.t0
    assert all(s.t1 == crash_t for s in abandoned)
    assert all(s.incarnation == 0 for s in abandoned)
    # no other node lost spans
    assert not tracer.abandoned_spans(pid=0)


def test_recovery_incarnation_spans_get_fresh_ids():
    from repro.observe.tracing import SpanTracer

    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    tracer = SpanTracer(cluster)
    cluster.schedule_crash(2, at_time=_ft_runtime() * 0.4)
    cluster.run(make_app("counter"))
    gen0 = {s.sid for s in tracer.spans if s.pid == 2 and s.incarnation == 0}
    gen1 = {s.sid for s in tracer.spans if s.pid == 2 and s.incarnation == 1}
    assert gen0 and gen1
    assert not gen0 & gen1
    # the new incarnation opened a fresh app span and closed it cleanly
    apps = [s for s in tracer.spans_by_kind("app", pid=2)]
    assert [s.incarnation for s in apps] == [0, 1]
    assert apps[0].status == "abandoned"
    assert apps[1].status == "closed"
    # the recovery phase itself is a span, annotated with its progress
    recs = tracer.spans_by_kind("recovery", pid=2)
    assert len(recs) == 1 and recs[0].status == "closed"
    assert "begin incarnation=1" in recs[0].detail
    # reconciliation holds against the final incarnation's TimeStats
    from repro.observe.tracing import reconcile_with_time_stats

    assert reconcile_with_time_stats(tracer) == []


def test_span_dag_validates_after_mid_transfer_crash():
    """Crash-sweep style: kill the victim in the middle of a checkpoint
    disk write (found by step from a reference trace), where torn state
    is most likely, and require a well-formed span DAG."""
    from repro.observe.tracing import SpanTracer, compute_critical_path

    # reference run: find a step inside a ckpt_write window on p1
    ref_cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    ref = timeline(ref_cluster.engine, {"ckpt_write"})
    ref_cluster.run(make_app("counter"))
    begins = [
        e for e in ref
        if e.pid == 1 and e.detail.startswith("begin")
    ]
    assert begins, "reference run must checkpoint on p1"
    crash_step = begins[0].step + 1  # mid disk write

    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    tracer = SpanTracer(cluster)
    cluster.schedule_crash_at_step(1, crash_step)
    result = cluster.run(make_app("counter"))
    assert result.crashes == 1 and result.recoveries == 1
    assert tracer.validate() == []
    # the torn ckpt_write span on the victim was abandoned mid-flight
    torn = [
        s for s in tracer.spans_by_kind("ckpt_write", pid=1)
        if s.status == "abandoned"
    ]
    assert len(torn) == 1
    # the critical path still covers the whole (longer) run
    segments = compute_critical_path(tracer)
    total = sum(s.duration for s in segments)
    assert abs(total - result.wall_time) < 1e-6 * result.wall_time
