"""Golden determinism tests for the simulation fast path.

The paper's results are only as good as the simulator's determinism: a
run must be a pure function of its configuration, and performance work
on the hot path (ready-queue engine, interned vector clocks, zero-copy
pages) must not perturb a single virtual timestamp or traffic counter.

Two layers of protection:

* *run-to-run*: the same configuration executed twice in one process
  yields bit-identical results;
* *golden pins*: final virtual times (as exact float hex) and traffic
  counters recorded **before** the fast-path optimizations landed; any
  drift means an optimization changed simulation semantics, not just
  speed.

Each pin also holds the engine's event count and a sha256 of its
``(time, seq)`` stream. Crash points are step-indexed, so a host-only
change that adds or drops one zero-delay event would reshuffle every
sweep point while leaving the virtual times above untouched.
"""

import hashlib
from array import array

import pytest

from repro.sim.trace import ENGINE_EVENT
from tests.conftest import make_app, make_cluster

#: exact pre-optimization values for (app, procs=4, ft) configurations;
#: wall times are pinned as float hex so comparison is bit-identical
#: ``steps``/``events_sha256`` were recorded later, on the engine and
#: network the one-hop send path replaced. Every pin here and in
#: ``CRASH_GOLDEN`` was re-recorded when stamps went on the wire in their
#: sparse form where shorter and a diff began carrying its interval
#: instead of its writer's clock: bytes and times fall, message counts
#: hold
GOLDEN = {
    ("lu", False): {
        "wall_time_hex": "0x1.60d08d6d153a0p-6",
        "total_bytes": 745198,
        "total_msgs": 1590,
        "bytes_by_category": {"barrier": 38685, "diff": 161638, "page": 544875},
        "msgs_by_category": {"barrier": 144, "diff": 480, "page": 966},
        "steps": 4469,
        "events_sha256": (
            "0b72c4a6b8b681be935090babc0da6fb"
            "9fa96be0f7ed1c2764fa015d56155775"
        ),
    },
    ("lu", True): {
        # re-recorded when a home began patching its open twin with
        # incoming diffs (docs/PROTOCOL.md, home-side diff rule): 113.6 ->
        # 90.7 ms, because LU's owners write their own homed blocks while
        # neighbours' diffs arrive, so a fifth of the FT run was logging
        # and checkpointing other processes' bytes
        "wall_time_hex": "0x1.738b4c1a6498fp-4",
        "total_bytes": 754581,
        "total_msgs": 1592,
        "bytes_by_category": {"barrier": 39385, "diff": 161748, "page": 553448},
        "msgs_by_category": {"barrier": 144, "diff": 480, "page": 968},
        "steps": 5536,
        "events_sha256": (
            "3504bee232f7c32e3825caaf8b775a49"
            "a7eb3f368c709de37135e81525532129"
        ),
    },
    ("counter", False): {
        "wall_time_hex": "0x1.f52ffba9926ecp-9",
        "total_bytes": 53323,
        "total_msgs": 162,
        "bytes_by_category": {
            "barrier": 2902, "diff": 478, "lock": 1945, "page": 47998,
        },
        "msgs_by_category": {"barrier": 36, "diff": 9, "lock": 31, "page": 86},
        "steps": 430,
        "events_sha256": (
            "52f2490c054b89d3c93160d89e7093c2"
            "3ae1c9becc9527f8c3de9f06ac0d8ad3"
        ),
    },
    ("counter", True): {
        # re-recorded when a grantor that knows the request's stamp began
        # logging the acquirer's exact timestamp: only a provisional grant
        # is confirmed by an AcqAck (DESIGN.md §7.6), so a failure-free
        # run sends none (lock 46 -> 36 msgs, as many as without FT), and
        # the timing shift nudges page traffic
        "wall_time_hex": "0x1.1af5619672f36p-5",
        "total_bytes": 56158,
        "total_msgs": 169,
        "bytes_by_category": {
            "barrier": 2974, "diff": 522, "lock": 2731, "page": 49931,
        },
        "msgs_by_category": {"barrier": 36, "diff": 9, "lock": 36, "page": 88},
        "steps": 530,
        "events_sha256": (
            "180226afdb6df8157e9ca533edefaf98"
            "693323941478acb370939bc7090e8252"
        ),
    },
    # Barnes, recorded on the parent of the commit that rewrote its force
    # phase as a collect-then-evaluate kernel: interaction counts feed
    # ``proc.compute`` and accelerations feed positions, which decide the
    # next tree, so a kernel that moves one bit or one count moves these
    ("barnes", False): {
        "wall_time_hex": "0x1.4feb7723949d6p-5",
        "total_bytes": 864647,
        "total_msgs": 1905,
        "bytes_by_category": {
            "barrier": 16383, "diff": 74645, "lock": 17801, "page": 755818,
        },
        "msgs_by_category": {
            "barrier": 72, "diff": 258, "lock": 219, "page": 1356,
        },
        "steps": 4921,
        "events_sha256": (
            "df69457e87d8d1bb7d9282576145c682"
            "347f535300800ab9880ab1d2b90c0eda"
        ),
    },
    ("barnes", True): {
        # re-recorded with the counter pin above: no AcqAck (lock 283 ->
        # 219 msgs, the base run's)
        "wall_time_hex": "0x1.cfea853fb24d7p-5",
        "total_bytes": 869629,
        "total_msgs": 1913,
        "bytes_by_category": {
            "barrier": 16383, "diff": 74645, "lock": 17801, "page": 760800,
        },
        "msgs_by_category": {
            "barrier": 72, "diff": 258, "lock": 219, "page": 1364,
        },
        "steps": 5505,
        "events_sha256": (
            "cd17fba3ed00debd6ee0de3e56fddfac"
            "a68bf109872528829ca26104bc77c474"
        ),
    },
    # buddy replication on (DESIGN.md §9): the replica stream is its own
    # traffic category; its ack timing also shifts checkpoint trimming,
    # which nudges the base-protocol byte counts slightly. Re-recorded at
    # PR 20 (replica bytes 100180 -> 100284, nothing else): a shipped
    # image now counts the acq halves of the node's self-grants, and a
    # self-grant mirror is a 40-byte grant entry, no longer a bare vt
    ("counter", "ft-repl"): {
        # re-recorded when the barrier manager's second barrier log went:
        # its replica images no longer ship it (4 episodes x 32 B); and
        # again when exact grant stamps dropped the AcqAcks (lock 46 ->
        # 36 msgs) and the rel_fix ops they shipped (replica 132 -> 122)
        "wall_time_hex": "0x1.1ff9678a7dc79p-5",
        "total_bytes": 150131,
        "total_msgs": 291,
        "bytes_by_category": {
            "barrier": 2918, "diff": 478, "lock": 2687, "page": 49479,
            "replica": 94569,
        },
        "msgs_by_category": {
            "barrier": 36, "diff": 9, "lock": 36, "page": 88, "replica": 122,
        },
        "steps": 667,
        "events_sha256": (
            "18762b3599a555f7af3c068de9432ae5"
            "f67c4c74685c7f74f373a0fd85398c59"
        ),
    },
}


def event_stream(cluster):
    """Tap ``cluster``'s engine; the returned callable gives the step
    count and a sha256 of every executed event's ``(time, seq)``."""
    times, seqs = array("d"), array("q")

    def tap(event):
        times.append(event[0])
        seqs.append(event[1])

    cluster.engine.bus.subscribe(ENGINE_EVENT, tap)

    def digest():
        blob = times.tobytes() + seqs.tobytes()
        return {
            "steps": cluster.engine.steps,
            "events_sha256": hashlib.sha256(blob).hexdigest(),
        }

    return digest


def simulated(result):
    """The pinned simulated results of one run."""
    traffic = result.traffic
    return {
        "wall_time_hex": result.wall_time.hex(),
        "total_bytes": traffic.total_bytes,
        "total_msgs": traffic.total_msgs,
        "bytes_by_category": dict(sorted(traffic.bytes_by_category.items())),
        "msgs_by_category": dict(sorted(traffic.msgs_by_category.items())),
    }


def without_stream(pin):
    """A pin without its event count and stream hash (for runs whose
    observer schedules events of its own)."""
    return {k: v for k, v in pin.items() if k not in ("steps", "events_sha256")}


def run_once(app_name: str, ft):
    if ft == "ft-repl":
        from repro.core import FtConfig

        cluster = make_cluster(4, ft=True, ft_config=FtConfig(replicate=True))
    else:
        cluster = make_cluster(4, ft=ft)
    stream = event_stream(cluster)
    result = cluster.run(make_app(app_name))
    return {**simulated(result), **stream()}


@pytest.mark.parametrize("app_name", ["lu", "counter", "barnes"])
@pytest.mark.parametrize("ft", [False, True], ids=["base", "ft"])
def test_matches_pre_optimization_golden(app_name, ft):
    assert run_once(app_name, ft) == GOLDEN[(app_name, ft)]


def test_matches_golden_with_replication():
    """Replication is deterministic too: pinned the day the buddy tier
    landed, any drift in the replica stream's timing or size shows here."""
    assert run_once("counter", "ft-repl") == GOLDEN[("counter", "ft-repl")]
    assert run_once("counter", "ft-repl") == run_once("counter", "ft-repl")


@pytest.mark.parametrize("app_name", ["lu", "counter"])
def test_run_to_run_identical(app_name):
    assert run_once(app_name, True) == run_once(app_name, True)


def test_golden_unchanged_with_armed_breakpoint():
    """The injection hooks are compiled in but must cost nothing.

    An armed-but-unreachable engine breakpoint (the crash-sweep
    primitive) must not perturb a single timestamp or counter: injection
    support has to be free on the failure-free path the golden pins
    protect.
    """
    cluster = make_cluster(4, ft=True)
    cluster.engine.break_at_step(10**9, lambda: None)
    stream = event_stream(cluster)
    result = cluster.run(make_app("counter"))
    assert {**simulated(result), **stream()} == GOLDEN[("counter", True)]


def test_golden_unchanged_with_sampling_enabled():
    """Observation must not perturb the observed run.

    A ClusterObserver with both cadences on (virtual-time ticker at 1 ms
    plus barrier-episode sampling) only reads state, so every timestamp
    and traffic counter must still match the golden pins — the
    observability layer's core guarantee (DESIGN.md §7.2).
    """
    from repro.observe import ClusterObserver

    cluster = make_cluster(4, ft=True)
    observer = ClusterObserver(cluster, interval=1e-3, sample_on_barrier=True)
    result = cluster.run(make_app("counter"))
    observer.sample()
    # the ticker's own events move the step count, never a result
    assert simulated(result) == without_stream(GOLDEN[("counter", True)])
    # and the observer did actually observe
    assert observer.registry.samples_taken > 10
    assert observer.registry.series_by_name("ft.log_volatile_bytes")
    # the latency engine collected through the same run without moving
    # a single pin: per-op percentile distributions are populated for
    # every key op class, and merging them is pure post-processing
    for name in ("lat.fetch", "lat.acquire", "lat.barrier", "lat.ckpt"):
        merged = observer.registry.merged_latency(name)
        assert merged is not None and merged.count > 0, name
        assert merged.percentile(99.0) >= merged.percentile(50.0)
    assert observer.registry.merged_latency("lat.ckpt").min > 0.0


def test_golden_unchanged_with_windowing_enabled():
    """Windowed tail-latency rotation must not perturb the observed run.

    With windowing on, every latency observation additionally files into
    its op class's cluster histogram for the fixed virtual-time window
    containing the observation instant. The clock callback reads the
    engine's virtual time and nothing else (DESIGN.md §7.4), so all golden
    pins must hold, and merging every window of the table back together
    must reproduce the whole-run distribution exactly.
    """
    from repro.observe import ClusterObserver

    cluster = make_cluster(4, ft=True)
    observer = ClusterObserver(
        cluster, interval=1e-3, sample_on_barrier=True, window_s=1e-3
    )
    result = cluster.run(make_app("counter"))
    observer.sample()
    # the ticker's own events move the step count, never a result
    assert simulated(result) == without_stream(GOLDEN[("counter", True)])
    # the table actually rotated: multiple windows, and their merge
    # equals the nodes' merge for every op class that observed anything
    for name in observer.registry.latency_names():
        total = observer.registry.merged_latency(name)
        windows = observer.registry.windows(name)
        if total is None or not total.count:
            continue
        assert windows, name
        merged = type(total).merged(windows.values(), name, total.node)
        assert merged.count == total.count, name
        assert merged.buckets == total.buckets, name
        for p in (50.0, 99.0):
            assert merged.percentile(p) == total.percentile(p), name
    assert len(observer.registry.windows("lat.acquire")) > 1


def test_golden_unchanged_with_span_tracing_enabled():
    """Span tracing must not perturb the traced run.

    The SpanTracer wraps sends, deliveries and protocol coroutines but
    only records: no messages, no CPU charges, no clock perturbation.
    Every timestamp and traffic counter must still match the golden
    pins — the span DAG is an observation, not a participant
    (DESIGN.md §7.5).
    """
    from repro.observe.tracing import SpanTracer

    cluster = make_cluster(4, ft=True)
    tracer = SpanTracer(cluster)
    stream = event_stream(cluster)
    result = cluster.run(make_app("counter"))
    assert {**simulated(result), **stream()} == GOLDEN[("counter", True)]
    # and the tracer did actually trace: spans for every kind of
    # blocking operation, one causal edge per sent message
    assert not tracer.validate()
    assert len(tracer.edges) == result.traffic.total_msgs
    kinds = {s.kind for s in tracer.spans}
    assert {"app", "compute", "fetch", "acquire", "barrier", "flush",
            "ckpt", "ckpt_write"} <= kinds


def test_golden_unchanged_with_monitor_attached():
    """The invariant monitor must not perturb the monitored run.

    The InvariantMonitor wraps sends, deliveries, probes and the engine
    event tap but only reads protocol state — no messages, no CPU
    charges, no clock perturbation. Every timestamp and traffic counter
    must still match the golden pins, while the monitor demonstrably
    checked every invariant class and found nothing (DESIGN.md §7.6).
    """
    from repro.observe import INVARIANTS, InvariantMonitor

    cluster = make_cluster(4, ft=True)
    monitor = InvariantMonitor(cluster)
    stream = event_stream(cluster)
    result = cluster.run(make_app("counter"))
    assert monitor.finish() == []
    assert {**simulated(result), **stream()} == GOLDEN[("counter", True)]
    # and the monitor did actually monitor
    for kind in INVARIANTS:
        assert monitor.checks[kind] > 0, f"{kind} never checked"


#: a session run with one fail-stop (p1 after step 300), without and with
#: buddy replication: the recovery queries, replies and queued deliveries
#: of a crash take paths no failure-free pin above reaches
CRASH_GOLDEN = {
    False: {
        # re-recorded when the barrier manager's second barrier log went:
        # its handshake reply carries each episode once (-32 B, -0.32 us);
        # and when exact grant stamps dropped the AcqAcks (lock 160 -> 127
        # msgs; the crash step now falls later in the run) and a pending
        # lock request went to a recovered process only when it is the
        # lock's manager (one re-sent LockAcquireReq fewer)
        "wall_time_hex": "0x1.b7946e79f1712p-5",
        "total_bytes": 29818,
        "total_msgs": 205,
        "bytes_by_category": {
            "barrier": 976, "diff": 702, "lock": 7350, "page": 16813,
            "recovery": 3977,
        },
        "msgs_by_category": {
            "barrier": 12, "diff": 13, "lock": 127, "page": 30, "recovery": 23,
        },
        "steps": 542,
        "events_sha256": (
            "5986b7428ffe9e5195b35d17c1b5d1dd"
            "2810ab34aef7d483d5148fd92c7e46da"
        ),
    },
    True: {
        # re-recorded with the one above (lock 176 -> 138 msgs, replica
        # 205 -> 169: no rel_fix ops)
        "wall_time_hex": "0x1.c46b6ae5cc5e1p-5",
        "total_bytes": 47204,
        "total_msgs": 389,
        "bytes_by_category": {
            "barrier": 1040, "diff": 702, "lock": 7903, "page": 19030,
            "recovery": 3545, "replica": 14984,
        },
        "msgs_by_category": {
            "barrier": 12, "diff": 13, "lock": 138, "page": 34, "recovery": 23,
            "replica": 169,
        },
        "steps": 748,
        "events_sha256": (
            "07249e143d0e5e38a08b2a9f796931a0"
            "e4d573ae50e1dee467a404abff570ab3"
        ),
    },
}


@pytest.mark.parametrize("replicate", [False, True], ids=["ft", "ft-repl"])
def test_crash_run_matches_golden(replicate):
    from repro.core import FtConfig

    cluster = make_cluster(4, ft=True, ft_config=FtConfig(replicate=replicate))
    cluster.schedule_crash_at_step(1, 300)
    stream = event_stream(cluster)
    result = cluster.run(make_app("session"))
    assert (result.crashes, result.recoveries) == (1, 1)
    assert {**simulated(result), **stream()} == CRASH_GOLDEN[replicate]
