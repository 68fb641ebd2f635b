"""Unit tests for the online invariant monitor and flight recorder.

The two halves of the monitor's contract:

* **No false positives** — a healthy run (failure-free or with a clean
  crash/recovery) reports zero violations while every invariant class
  actually gets exercised.
* **No false negatives** — for each of the six invariant classes, a
  seeded protocol sabotage (``repro.faultinject.mutants.MUTANTS[kind]``)
  must be detected as exactly that class, and the resulting flight
  record must be structurally valid and renderable.
"""

import contextlib
import json
import re
from collections import deque

import pytest

from repro.observe import (
    INVARIANTS,
    FlightRecorder,
    InvariantMonitor,
    render_flight_record,
    validate_flight_record,
    write_flight_record,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core import FtConfig
from repro.dsm.messages import DiffMsg
from repro.dsm.vclock import VClock
from repro.faultinject.mutants import MUTANTS
from repro.observe.invariants import monitor as monitor_mod
from repro.observe.invariants import recoverability
from repro.sim.engine import Engine
from repro.sim.trace import DELIVER, LOCK_ACQUIRED, RECOVERY_ANNOTATE, SEND
from tests.conftest import make_app, make_cluster
from tests.fuzz_app import N_PROCS, FuzzApp
from tests.pins import PINS


@contextlib.contextmanager
def cadence(scan_every):
    """The structural scan runs every ``scan_every``-th delivery inside
    (every shipped caller runs at the module constant; tests vary it)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recoverability, "SCAN_EVERY", scan_every)
        yield


def sabotage(kind):
    """The mutant that seeds invariant class ``kind``; none for ``None``."""
    return contextlib.nullcontext() if kind is None else MUTANTS[kind]()


def run_monitored(kind=None, crash=None, num_procs=4, scan_every=1):
    """One counter run with the monitor attached; optionally seeded
    with a violation or a scheduled crash. Returns the monitor."""
    cluster = make_cluster(num_procs=num_procs, ft=True)
    monitor = InvariantMonitor(cluster)
    if crash is not None:
        cluster.schedule_crash_at_step(*crash)
    with cadence(scan_every), sabotage(kind):
        try:
            cluster.run(make_app("counter"))
        except Exception:
            # seeded sabotage may corrupt the run past the detection point;
            # that is acceptable only if the violation was recorded first
            if not monitor.violations:
                raise
    monitor.finish()
    return monitor


@pytest.fixture(scope="module")
def clean_monitor():
    """``run_monitored()``, run once for the module: its tests only read
    the monitor (checks, violations, flight records made on demand)."""
    return run_monitored()


# ---------------------------------------------------------------------------
# clean runs: every class checked, nothing flagged
# ---------------------------------------------------------------------------
def test_clean_run_all_classes_checked_zero_violations(clean_monitor):
    monitor = clean_monitor
    assert monitor.violations == []
    for kind in INVARIANTS:
        assert monitor.checks[kind] > 0, f"{kind} never checked"


def test_clean_crash_recovery_run_zero_violations():
    monitor = run_monitored(crash=(1, 250))
    assert monitor.violations == [] and monitor.violation_dump is None
    # a crash makes no dump of its own; the end-of-run record (what the
    # CLI writes) spans it and validates
    dump = monitor.flight_record("end of run")
    assert validate_flight_record(dump) == []
    assert dump["nodes"][1]["crashes"] == 1


def test_scan_every_throttles_structural_scan(clean_monitor):
    every = clean_monitor  # scans at every delivery
    throttled = run_monitored(scan_every=25)
    assert 0 < throttled.checks["recoverability"] < every.checks["recoverability"]
    assert throttled.violations == []


# ---------------------------------------------------------------------------
# seeded violations: each class detected as itself
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", INVARIANTS)
def test_seeded_violation_detected(kind, tmp_path):
    monitor = run_monitored(kind=kind)
    assert monitor.violations, f"seeded {kind} violation went undetected"
    flagged = {v.invariant for v in monitor.violations}
    assert flagged == {kind}, (
        f"seeded {kind} flagged as {sorted(flagged)}"
    )
    # first violation snapshots a flight record; it must round-trip
    dump = monitor.violation_dump
    assert dump is not None
    assert validate_flight_record(dump) == []
    assert dump["violations"][0]["invariant"] == kind
    path = tmp_path / "flight.json"
    write_flight_record(str(path), dump)
    again = json.loads(path.read_text())
    assert validate_flight_record(again) == []
    text = render_flight_record(again)
    assert "FLIGHT RECORD" in text
    assert f"[{kind}]" in text


def test_unknown_seed_rejected(capsys):
    """Each invariant class has its seed in the mutant table, and the CLI
    offers those six and nothing else."""
    assert set(INVARIANTS) <= set(MUTANTS)
    with pytest.raises(SystemExit):
        main(["monitor", "counter", "--seed-violation", "nonsense"])
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_violations_deduplicated_and_capped(monkeypatch):
    monkeypatch.setattr(monitor_mod, "MAX_VIOLATIONS", 3)
    cluster = make_cluster(num_procs=4, ft=True)
    monitor = InvariantMonitor(cluster)
    for _ in range(10):
        monitor._violate("cgc", 0, "same detail")
    assert len(monitor.violations) == 1  # deduplicated
    for i in range(10):
        monitor._violate("llt", 0, f"detail {i}")
    assert len(monitor.violations) == 3  # capped (1 cgc + 2 llt)
    assert monitor.dropped_violations == 8


# ---------------------------------------------------------------------------
# incremental scans vs. the full scan they stand in for
# ---------------------------------------------------------------------------
class FullScan(recoverability.RecoverabilityChecker):
    """The oracle: every periodic scan visits everything."""

    def scan(self, full, final):
        super().scan(full=True, final=final)


class FullScanMonitor(InvariantMonitor):
    CHECKERS = tuple(
        FullScan if c.name == "recoverability" else c
        for c in InvariantMonitor.CHECKERS
    )


def verdicts(monitor):
    return [(v.invariant, v.pid, v.step, v.detail) for v in monitor.violations]


def both_ways(cluster, app, scan_every, kind=None, crashes=()):
    """Run ``app`` once with an incremental monitor and a full-scan
    shadow on the same bus (both only read, so they see the same run and
    scan at the same deliveries); return the two verdict lists. A mutant
    of the memo changes incremental scans only: the shadow's are full."""
    incremental = InvariantMonitor(cluster)
    shadow = FullScanMonitor(cluster)
    for pid, step in crashes:
        cluster.schedule_crash_at_step(pid, step)
    with cadence(scan_every), sabotage(kind):
        try:
            cluster.run(app)
        except Exception:
            if not shadow.violations:  # sabotage may kill the run afterwards
                raise
    incremental.finish()
    shadow.finish()
    assert incremental.checks == shadow.checks
    return verdicts(incremental), verdicts(shadow)


NARROW = [
    ("counter", 4, (), False),
    ("session", 4, (), False),
    ("counter", 4, ((1, 250),), False),
    ("session", 4, ((1, 250),), False),
    ("session", 4, ((1, 250), (2, 420)), True),
]
#: (a full scan per delivery at N=32 is the 3 s this PR removes elsewhere)
WIDE = [("counter", 32, (), False), ("counter", 32, ((5, 4000),), False)]


@pytest.mark.parametrize(
    "app_name,num_procs,crashes,replicate,scan_every",
    [c + (1,) for c in NARROW] + [c + (10,) for c in NARROW + WIDE],
)
def test_incremental_scan_matches_full_scan_clean(
    app_name, num_procs, crashes, replicate, scan_every
):
    cluster = make_cluster(
        num_procs=num_procs, ft=True,
        ft_config=FtConfig(replicate=True) if replicate else None,
    )
    got, want = both_ways(
        cluster, make_app(app_name), scan_every, crashes=crashes
    )
    assert got == want == []
    assert cluster.crashes == cluster.recoveries == len(crashes)


@pytest.mark.parametrize("scan_every", [1, 10])
@pytest.mark.parametrize("kind", INVARIANTS)
def test_incremental_scan_matches_full_scan_seeded(kind, scan_every):
    cluster = make_cluster(num_procs=4, ft=True)
    got, want = both_ways(cluster, make_app("counter"), scan_every, kind=kind)
    assert want and got == want  # same verdicts at the same engine steps


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), frac=st.floats(0.1, 0.9),
       scan_every=st.sampled_from([1, 7, 20]))
def test_incremental_scan_matches_full_scan_fuzz(seed, frac, scan_every):
    from repro import DsmCluster, DsmConfig
    from repro.core import LogOverflowPolicy

    def build():
        return DsmCluster(
            DsmConfig(num_procs=N_PROCS), ft=True,
            policy_factory=lambda pid, fp: LogOverflowPolicy(0.05, fp),
        )

    steps = build()
    steps.run(FuzzApp(seed))
    crash_step = max(1, int(steps.engine.steps * frac))
    got, want = both_ways(
        build(), FuzzApp(seed), scan_every,
        crashes=((seed % N_PROCS, crash_step),),
    )
    assert got == want == []


#: each ``mislogged_*`` mutant, and what the first violation then says
MISLOGGED = {
    "unjoined": "is missing from",
    "unstamped": "does not exactly match the acquirer's actual",
}


@pytest.mark.parametrize("mutation", list(MISLOGGED))
def test_a_mislogged_grant_is_caught_at_the_first_scan(mutation):
    """Every grant made from a known stamp is exact, so the pair check
    demands equality at every scan, not only after quiescence: the first
    scan after the first acquire whose logged stamp differs from the
    actual one names that pair."""
    cluster = make_cluster(num_procs=4, ft=True)
    monitor = InvariantMonitor(cluster)
    engine, bus = cluster.engine, cluster.engine.bus
    wrong, delivered = [], []

    def acquired(pid, lock_id, grantor, local):
        logged = cluster.hosts[grantor].ft.logs.rel.entries[pid][-1].acq_t
        if not local and not wrong and logged != cluster.hosts[pid].proto.vt:
            wrong.append((engine.steps, pid, grantor))

    bus.subscribe(LOCK_ACQUIRED, acquired)
    bus.subscribe(DELIVER, lambda *_: delivered.append(engine.steps))
    with cadence(1), MUTANTS[f"mislogged_{mutation}"](), \
            contextlib.suppress(Exception):
        cluster.run(make_app("session"))
    assert wrong, "no logged stamp was wrong: the mutation did not fire"
    step, acquirer, grantor = wrong[0]
    first = monitor.violations[0]
    assert (first.invariant, first.pid) == ("recoverability", acquirer)
    assert f"p{grantor}'s rel_log[{acquirer}]" in first.detail
    assert MISLOGGED[mutation] in first.detail and "quiescence" not in first.detail
    assert first.step == min(d for d in delivered if d > step)


def test_in_place_patch_is_seen_at_the_same_scan_and_its_mutation_is_not():
    """A corrected grant arrives as a replaced bucket: the incremental
    scan right after it sees what a full scan sees; a signature that
    ignores which list a bucket is does not."""
    # p0's live switch grants on a repair forward whose request stamp
    # died with it, and that provisional grant draws an AcqAck
    schedule = PINS["provisional_grant_confirmed"].schedule
    point = schedule.point

    def run():
        return both_ways(
            schedule.cluster(), schedule.make_app(), 1,
            kind="corrupt_first_confirm", crashes=((point.victim, point.step),),
        )

    got, want = run()
    assert want and got == want
    assert "stamps a timestamp beyond" in want[0][3]
    with MUTANTS["blind_to_replaced_buckets"]():
        got, want = run()
    assert got != want  # the differential check catches the mutation


def test_a_missing_entry_is_rechecked_when_its_grant_lands_late():
    """The extension rechecks the entries it let pass as missing: a grant
    logged after its acquire is matched (and here found wrong) at the
    scan after it lands, as a full scan finds it; an extension that
    forgets them never looks again."""
    def run():
        return both_ways(make_cluster(num_procs=4, ft=True), make_app("session"),
                         1, kind="late_first_grant_log")

    got, want = run()
    assert want and got == want
    assert "stamps a timestamp beyond" in want[0][3]
    with MUTANTS["forgets_missing"]():
        got, want = run()
    assert got != want  # the differential check catches the mutation


def test_a_diff_ahead_of_its_writers_clock_is_reported_at_its_send():
    """A ``DiffMsg`` carries its writer's interval, not a stamp: the
    vclock checker holds it to the writer's highest observed vector time
    as it does every stamp, at the send that carries it."""
    cluster = make_cluster(num_procs=4, ft=True)
    monitor = InvariantMonitor(cluster)
    sent = []

    def diff_sent(src, dst, msg):
        if type(msg) is DiffMsg and not sent:
            sent.append((cluster.engine.steps, src, msg.interval))

    cluster.engine.bus.subscribe(SEND, diff_sent)
    with MUTANTS["diff_ahead"](), contextlib.suppress(Exception):
        cluster.run(make_app("counter"))
    assert sent, "no diff was sent: the mutation did not fire"
    step, writer, interval = sent[0]
    assert monitor.violations, "a diff ahead of its writer went unreported"
    first = monitor.violations[0]
    assert (first.invariant, first.pid, first.step) == ("vclock", writer, step)
    assert f"DiffMsg.interval {interval} runs ahead of p{writer}'s" in first.detail


# ---------------------------------------------------------------------------
# the self-grant pair (a ``local`` acq entry and its twin at the holder)
# ---------------------------------------------------------------------------
def test_sequential_failure_schedule_monitored_clean():
    """The pinned schedule that used to deadlock (p1, then p0 right after
    p1 went live), monitor attached from the first step (the sweep joins
    it at the first crash): both recoveries, no violation."""
    schedule = PINS["self_grant_twins_counter4"].schedule
    cluster = schedule.cluster()
    monitor = InvariantMonitor(cluster)
    point = schedule.point
    for step, victim in (point.base, (point.step, point.victim)):
        cluster.schedule_crash_at_step(victim, step)
    res = cluster.run(schedule.make_app())
    assert res.crashes == res.recoveries == 2
    assert monitor.finish() == []
    assert monitor.checks["recoverability"] > 0


def test_lost_self_grant_mirror_is_a_recoverability_violation():
    """p0 recovers and gets its peers' self-grant mirrors back from their
    acq logs. Drop one of them behind the protocol's back: at quiescence
    the final scan names the lock and the holder; while messages are
    still in flight a missing twin proves nothing and is not flagged."""
    schedule = PINS["self_grant_twins_session4_p0_early"].schedule
    cluster = schedule.cluster()
    monitor = InvariantMonitor(cluster)
    step, victim = schedule.point.base
    cluster.schedule_crash_at_step(victim, step)
    assert cluster.run(schedule.make_app()).recoveries == 1
    cluster.engine.run()  # drain what the app's end left in flight
    assert not cluster.network.inflight_msgs
    rel = cluster.hosts[0].ft.logs.rel

    def own_cut(i):
        latest = cluster.hosts[i].ckpt_mgr.latest
        return latest.tckp[i] if latest is not None else 0

    acquirer, entry = next(
        (i, e)
        for i, bucket in enumerate(rel.entries)
        for e in bucket
        if e.local and e.acq_t[i] > own_cut(i)
    )
    assert entry in cluster.hosts[acquirer].ft.logs.acq.entries[0]  # the twin
    rel.entries[acquirer] = [e for e in rel.entries[acquirer] if e is not entry]

    cluster.network.inflight_msgs += 1  # as if a notification were under way
    monitor.checkers["recoverability"].scan(full=True, final=True)
    assert monitor.violations == []
    cluster.network.inflight_msgs -= 1
    (violation,) = monitor.finish()
    assert violation.invariant == "recoverability" and violation.pid == acquirer
    assert f"lock {entry.lock_id}," in violation.detail
    assert f"holder p0's rel_log[{acquirer}]" in violation.detail


# ---------------------------------------------------------------------------
# the lock checker: one token per lock, and a waiter's token on its way
# ---------------------------------------------------------------------------
def test_lock_deadlock_names_the_token_and_is_a_lock_violation():
    """The deadlock report says where each waited-on lock's token rests,
    which hosts queue a grant for it and its newest grant pair (p0's
    first acquire, a self-grant whose rel half p1 holds); the monitor's
    end-of-run check (asked after the failed run, as sweeps and the CLI
    do) names the stall: a sweep point reports it instead of a bare
    deadlock."""
    with MUTANTS["drop_first_forward"]():
        cluster = make_cluster(num_procs=4, ft=True)
        monitor = InvariantMonitor(cluster)
        with pytest.raises(RuntimeError, match="deadlock") as info:
            cluster.run(make_app("counter"))
    assert "lock_waits=[0]" in str(info.value)
    assert (
        "lock 0: token_resting_at=[0] grant_queued_at=[] "
        "newest_grant=p0->p0@(1, 0, 0, 0) in acq@p0+rel@p1\n"
    ) in str(info.value)
    (violation,) = monitor.finish()
    assert violation.invariant == "lock"
    assert "rests idle at p0, with no grant, request" in violation.detail


def test_token_count_after_a_live_switch_is_taken_after_the_drain():
    """p1's token is flipped as its queue drains at the live switch: the
    count after the switch reports it at the very next delivery — after
    the drain, so a queued grant the drain turns into the token is not
    counted twice (the overlap pins in test_crashsweep run that case)."""
    from repro.sim.trace import RECOVERY_LIVE

    cluster = make_cluster(num_procs=4, ft=True)
    monitor = InvariantMonitor(cluster)
    live_at = []
    cluster.engine.bus.subscribe(
        RECOVERY_LIVE, lambda pid: live_at.append(cluster.engine.steps)
    )
    cluster.schedule_crash_at_step(1, 250)
    # the sabotaged run may not end well
    with MUTANTS["token_flip_at_drain"](), contextlib.suppress(Exception):
        cluster.run(make_app("counter"))
    first = monitor.violations[0]
    assert first.invariant == "lock"
    assert "tokens after p1's live switch" in first.detail
    assert live_at[0] < first.step <= live_at[0] + 5


# ---------------------------------------------------------------------------
# adoption: a monitor built mid-run takes its memory from the cluster
# ---------------------------------------------------------------------------
class _Stop(Exception):
    """Ends a run at the breakpoint where a monitor joined it."""


#: checker attributes that are not memory: references, counts of checks
#: made, and the memo caches, which a joining monitor starts empty (its
#: first look at every stamp, chain and pair is a full one)
_NOT_MEMORY = {
    "cluster", "_net", "_n", "_violate", "_forget_all", "checks",
    "_stamps_ok", "_stamp_shape", "_chains_ok", "_pairs_ok",
}


def canon(x):
    """A run-independent form: two runs hold equal, distinct objects."""
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, deque)):
        return [canon(v) for v in x]
    if isinstance(x, set):
        return sorted(x)
    if isinstance(x, VClock):
        return tuple(x)
    if x is None or isinstance(x, (int, float, str)):
        return x
    return re.sub(r" at 0x[0-9a-f]+", "", repr(x))  # a message


def memory(monitor):
    """Each checker's memory. An emptied channel queue and a lock count
    back at zero are dropped: the cold checker keeps their keys. A
    missing queue is an empty one, and ``_all_locks`` also asks every
    table, where a lock no table knows rests at its manager."""
    out = {
        name: {k: canon(v) for k, v in vars(c).items() if k not in _NOT_MEMORY}
        for name, c in monitor.checkers.items()
    }
    for name, key in (("fifo", "_chan"), ("lock", "_grants"), ("lock", "_asks")):
        out[name][key] = {k: v for k, v in out[name][key].items() if v}
    return out


def look(monitor):
    """Let a monitor from step 0 look at the cluster now. It reads vector
    times at messages, CGC floors at passes and buddy acks at scans, so
    between two looks it holds older ones, which the next look replaces
    before anything is checked against them."""
    checkers = monitor.checkers
    checkers["vclock"]._refresh()
    for host in monitor.cluster.hosts:
        checkers["cgc"]._check(host.pid)
    checkers["recoverability"]._scan_replicas(False)


def test_adopted_memory_equals_the_cold_monitors():
    """At every 25th step before the first crash of a replicated 4-node
    session run, a monitor built on a fresh run broken there holds what
    the monitor attached from step 0 holds. At L = 0.05 three nodes
    write a checkpoint between steps 417 and 480."""
    def cluster():
        return make_cluster(
            num_procs=4, ft=True, l_fraction=0.05,
            ft_config=FtConfig(replicate=True),
        )

    crash, strides = 700, range(25, 700, 25)
    cold = cluster()
    monitor = InvariantMonitor(cold)
    held = {}

    def snapshot(step):
        look(monitor)
        held[step] = memory(monitor)

    for step in strides:
        cold.engine.break_at_step(step, lambda s=step: snapshot(s))
    cold.schedule_crash_at_step(1, crash)
    cold.run(make_app("session"))
    assert monitor.finish() == [] and cold.crashes == 1
    assert any(held[s]["fifo"]["_chan"] for s in strides)
    assert any(held[s]["lock"]["_grants"] for s in strides)
    assert any(held[s]["recoverability"]["_writing"] for s in strides)
    for step in strides:
        fresh = cluster()
        joined = []

        def join():
            joined.append(InvariantMonitor(fresh, ring_size=0))
            raise _Stop

        fresh.engine.break_at_step(step, join)
        with pytest.raises(_Stop):
            fresh.run(make_app("session"))
        assert memory(joined[0]) == held[step], f"step {step}"


@pytest.mark.parametrize("kind", INVARIANTS)
def test_adopted_monitor_reports_the_first_seeded_violation(kind):
    """Joined halfway to the cold monitor's first detection, at the
    shipped scan cadence, a monitor reports the same first violation at
    the same step."""
    cold = run_monitored(kind=kind, scan_every=recoverability.SCAN_EVERY)
    first = cold.violations[0]
    cluster = make_cluster(num_procs=4, ft=True)
    joined = []
    cluster.engine.break_at_step(
        first.step // 2, lambda: joined.append(InvariantMonitor(cluster))
    )
    try:
        with MUTANTS[kind]():
            cluster.run(make_app("counter"))
    except Exception:
        if not joined[0].violations:
            raise
    (monitor,) = joined
    got = monitor.finish()[0]
    assert (got.invariant, got.pid, got.step) == (
        first.invariant, first.pid, first.step
    )


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
def test_flight_recorder_ring_is_bounded():
    engine = Engine()
    rec = FlightRecorder(ring_size=8)
    rec.attach(engine)
    for i in range(50):
        engine.bus.emit(RECOVERY_ANNOTATE, 0, "detail", i)
    assert rec.recorded == 50
    events = rec.dump()
    assert len(events) == 8
    assert events[0]["detail"] == "detail=42"  # oldest kept
    assert events[-1]["detail"] == "detail=49"
    assert {e["kind"] for e in events} == {"recovery"}


def test_flight_recorder_rejects_bad_ring():
    with pytest.raises(ValueError, match="ring_size"):
        FlightRecorder(ring_size=0)


def test_flight_record_mixes_engine_probe_and_message_events(clean_monitor):
    monitor = clean_monitor
    dump = monitor.flight_record("end of run")
    assert validate_flight_record(dump) == []
    kinds = {e["rec"] for e in dump["events"]}
    assert {"engine", "probe", "send", "deliver"} <= kinds
    # engine events carry a human-readable label, not a repr of a partial
    engine = [e for e in dump["events"] if e["rec"] == "engine"]
    assert any("(" in e["event"] for e in engine)


def test_validate_flight_record_flags_malformed(clean_monitor):
    monitor = clean_monitor
    dump = monitor.flight_record("ok")
    assert validate_flight_record(dump) == []
    bad = dict(dump)
    del bad["nodes"]
    assert any("nodes" in e for e in validate_flight_record(bad))
    bad = dict(dump, events=[{"rec": "martian", "time": 0.0, "step": 1}])
    assert any("martian" in e for e in validate_flight_record(bad))
    bad = dict(dump, violations=[{"invariant": "cgc"}])
    assert validate_flight_record(bad)
