"""Fault-injection campaign tests: the crash sweep and its hardening.

These exercise the robustness surface the sweep depends on — torn
checkpoints discarded at recovery, restartable recovery, the
overlapping-failure hold/detect path, and the deadlock diagnostics —
plus a bounded end-to-end sweep with the recovery-equivalence oracle.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from functools import partial

import pytest

from repro.core import FtConfig
from repro.core.recovery import OverlappingFailureError
from repro.faultinject import CrashSweep, Schedule
from repro.faultinject.campaign import (
    CrashPoint,
    OracleViolation,
    PointResult,
    accepted,
    check_oracle,
)
from repro.faultinject.mutants import MUTANTS
from repro.sim.engine import Future
from repro.sim.trace import LOCK_ACQUIRED, REPL_BEGIN, REPL_COMMIT
from tests.conftest import make_app, make_cluster
from tests.pins import PINS

FAST_DETECT = {"failure_detection_delay": 2e-3}


def _factories(**app_overrides):
    defaults = {"steps": 2, "n_elements": 256}

    def cluster_factory():
        return make_cluster(num_procs=4, ft=True, l_fraction=0.2, **FAST_DETECT)

    def app_factory():
        return make_app("counter", **{**defaults, **app_overrides})

    return cluster_factory, app_factory


#: the serving workload at 5000 requests/s on 4 nodes, L = 0.1
SERVING = (
    partial(make_cluster, num_procs=4, ft=True, l_fraction=0.1, **FAST_DETECT),
    partial(make_app, "session", rate=5000.0),
)


@pytest.fixture(scope="module")
def counter_sweep():
    """A sweep of ``_factories()`` whose reference run is done: its
    trace and region snapshots. Tests only read them."""
    sweep = CrashSweep(*_factories())
    sweep.run_reference()
    return sweep


@pytest.fixture(scope="module")
def mid_run_window(counter_sweep):
    """(victim, step, begin, live): a crash at the reference's middle
    event and the recovery window it opens, found by the sweep's own
    discovery run."""
    sweep = counter_sweep
    ev = sweep.reference_trace[len(sweep.reference_trace) // 2]
    begin, live, _end = sweep._recovery_window("recovery", ev.step, ev.pid)
    assert not sweep.failed_discoveries
    return ev.pid, ev.step, begin, live


# ======================================================================
# end-to-end sweep
# ======================================================================


def test_sweep_counter_bounded():
    """A bounded sweep over every class: 100% recovered or explicitly
    degraded, and degradation only where a second failure overlapped."""
    cluster_factory, app_factory = _factories()
    sweep = CrashSweep(cluster_factory, app_factory, every=60)
    summary = sweep.run()
    assert summary.results, "sweep enumerated no crash points"
    outcomes = summary.outcomes()
    assert outcomes.get("failed", 0) == 0, [
        r.error for r in summary.results if r.outcome == "failed"
    ]
    assert outcomes.get("recovered", 0) > 0
    assert summary.ok
    # targeted classes must actually enumerate points on this app
    classes_hit = {r.point.cls for r in summary.results}
    assert {
        "lock", "barrier", "ckpt_write", "recovery", "sequential"
    } <= classes_hit
    # summary serializes deterministically
    payload = json.loads(summary.to_json(app="counter", procs=4))
    assert payload["ok"] is True
    assert payload["outcomes"] == outcomes


def test_sweep_rejects_unknown_class_and_nonft_cluster():
    cluster_factory, app_factory = _factories()
    for bogus in ("bogus", "repl"):  # repl points are ckpt_write points
        with pytest.raises(ValueError, match="unknown crash-point classes"):
            CrashSweep(cluster_factory, app_factory, classes=(bogus,))
    sweep = CrashSweep(partial(make_cluster, num_procs=4), app_factory)
    with pytest.raises(RuntimeError, match="FT-enabled"):
        sweep.run_reference()


def test_sequential_class_is_every_other_node_after_the_live_switch():
    """One failure at a time, repeated: each second crash lands after its
    anchor went live and every node but the anchor takes one."""
    cluster_factory, app_factory = _factories()
    sweep = CrashSweep(cluster_factory, app_factory, classes=("sequential",))
    points = sweep.enumerate_points()
    assert len(points) >= 30
    victims = {}
    for p in points:
        _begin, live, end = sweep._windows[p.base]
        assert live < p.step <= end
        victims.setdefault(p.base, set()).add(p.victim)
    assert len(victims) == 3  # the double class's anchors
    for (_step, anchor), hit in victims.items():
        assert hit == set(range(4)) - {anchor}
    summary = sweep.run()
    assert summary.ok and set(summary.outcomes()) <= {"recovered", "no_crash"}


#: (replicate, class, error, accepted): the one verdict on a degraded
#: point whose base crash is p1's and whose second crash is p2's
DEGRADE_VERDICTS = {
    "in_window_naming_a_victim": (False, "recovery", "depends on p2", True),
    "names_the_base_victim": (False, "double", "p1 failed again", True),
    "under_replication": (True, "recovery", "depends on p2", False),
    "after_live": (False, "sequential", "depends on p2", False),
    "names_neither_victim": (False, "double", "depends on p3", False),
    "names_a_longer_pid": (False, "double", "depends on p12", False),
}


@pytest.mark.parametrize("case", list(DEGRADE_VERDICTS))
def test_degraded_point_verdict(case):
    """A degraded point passes only without replication, for a second
    crash inside the base crash's recovery window, with an error naming
    one of its two victims; a failed point never passes."""
    replicate, cls, error, passes = DEGRADE_VERDICTS[case]
    point = CrashPoint(cls, 120, 2, base=(100, 1))
    degraded = PointResult(point, "degraded", error=error)
    assert accepted(degraded, replicate) is passes
    assert not accepted(PointResult(point, "failed", error=error), replicate)


def test_replicated_write_crashes_writer_and_buddy():
    """Every replicated checkpoint write (``REPL_BEGIN``…``REPL_COMMIT``)
    yields ``ckpt_write`` points for the writer and for its buddy at the
    write's midpoint; the write's replication needs no class of its own."""
    sweep = CrashSweep(
        lambda: make_cluster(
            num_procs=4, ft=True, ft_config=FtConfig(replicate=True),
            **FAST_DETECT,
        ),
        _factories()[1],
        classes=("ckpt_write",),
    )
    points = set(sweep.enumerate_points())
    begins, writes = {}, 0
    for ev in sweep.reference_trace:
        if ev.event == REPL_BEGIN:
            begins[(ev.pid, ev.args[0])] = ev.step
        elif ev.event == REPL_COMMIT:
            b = begins.pop((ev.pid, ev.args[0]))
            mid = max(b, min((b + ev.step) // 2, ev.step - 1))
            assert CrashPoint("ckpt_write", mid, ev.pid) in points
            assert CrashPoint("ckpt_write", mid, ev.args[1]) in points
            writes += 1
    assert writes and sweep.replicate


def test_sweep_builds_one_cluster_per_run():
    """The reference, each discovery run and each point build a cluster;
    the width the window classes need is read off the reference's."""
    cluster_factory, app_factory = _factories()
    builds = []

    def counting_factory():
        builds.append(1)
        return cluster_factory()

    sweep = CrashSweep(
        counting_factory, app_factory, classes=("recovery", "sequential")
    )
    summary = sweep.run()
    assert summary.ok and summary.results
    assert len(builds) == 1 + len(sweep._windows) + len(summary.results)


def test_a_failed_discovery_run_is_a_failed_point():
    """A discovery run is injected and judged like any point: when the
    base crash's recovery itself breaks, the sweep reports a ``failed``
    point of the window class that asked for it and places nothing
    against that anchor, instead of raising out of enumeration."""
    sweep = CrashSweep(*_factories(), classes=("recovery",))
    with MUTANTS["recovery_raises"]():
        summary = sweep.run()
    (res,) = summary.results
    events = [e for e in sweep.reference_trace if e.step >= 1]
    anchor = events[int(len(events) * 0.45)]
    assert res.point == CrashPoint("recovery", anchor.step, anchor.pid)
    assert res.outcome == "failed" and not summary.ok
    assert res.error == f"RuntimeError: p{anchor.pid} recovery sabotaged"
    assert summary.notes == [
        f"recovery window for base crash p{anchor.pid}@{anchor.step} not "
        "found (discovery run failed); recovery points for this anchor "
        "skipped"
    ]


def test_sweep_session_lock_class():
    """The open-loop serving workload sweeps clean over lock crash
    points. Its zipfian hot keys build deep wait chains, which the
    uniform workloads rarely do — this is the coverage that exposed the
    restore_chain stale-seq token loss."""
    sweep = CrashSweep(*SERVING, every=90, classes=("lock",))
    summary = sweep.run()
    assert summary.results, "sweep enumerated no lock crash points"
    assert summary.ok, [
        r.error for r in summary.results if r.outcome == "failed"
    ]


def test_crash_manager_before_inflight_grant_completes():
    """Regression: crash a lock manager one step before its own remote
    acquire completes — the token is in flight to it and (with a hot
    enough lock) other waiters are queued behind it. ``restore_chain``
    used to seed the re-attached head waiter with its last *completed*
    seq from the handshake; the repair grant then matched the waiter's
    completed-seq dedup, was dropped, and the token was lost — the run
    deadlocked. Every such window must now recover to the failure-free
    result."""
    sweep = CrashSweep(*SERVING, monitor=False)
    sweep.run_reference()
    # p0 manages L0 (lock_id % n): its remote acquires of L0 are exactly
    # the windows where the token is in flight to a (crashable) manager
    points = [
        ev.step - 1
        for ev in sweep.reference_trace
        if ev.pid == 0
        and ev.event == LOCK_ACQUIRED
        and ev.args[0] == 0
        and not ev.args[2]
        and ev.step > 1
    ]
    assert points, "no remote acquires of a self-managed lock in reference"
    for step in points:
        res = sweep.run_point(CrashPoint("lock", step, 0))
        assert res.outcome == "recovered", res.error


# ======================================================================
# torn checkpoints (commit-marker protocol)
# ======================================================================


def test_crash_during_checkpoint_write_recovers_from_previous(
    counter_sweep,
):
    """A fail-stop mid checkpoint-disk-write leaves a torn record;
    recovery must discard it and restart from the previous checkpoint,
    and the final result must match the failure-free run."""
    cluster_factory, app_factory = _factories()
    events = counter_sweep.reference_trace
    reference = counter_sweep.reference_snapshots
    begins = {}
    window = None
    for ev in (e for e in events if e.kind == "ckpt_write"):
        tag = ev.detail.split()[1]
        if ev.detail.startswith("begin"):
            begins[(ev.pid, tag)] = ev.step
        elif (ev.pid, tag) in begins:
            window = (ev.pid, int(tag.split("=")[1]), begins[(ev.pid, tag)], ev.step)
            break
    assert window is not None, "no checkpoint disk write in reference run"
    victim, seqno, begin, end = window
    assert end > begin + 1, "disk write spans no events; cannot interrupt"

    cluster = cluster_factory()
    cluster.schedule_crash_at_step(victim, (begin + end) // 2)
    res = cluster.run(app_factory())
    assert res.crashes == 1 and res.recoveries == 1

    mgr = cluster.hosts[victim].ckpt_mgr
    assert mgr.torn_discarded == 1
    assert not hasattr(mgr, "checkpoints")  # the store is the one index
    assert ("ckpt", seqno) not in cluster.hosts[victim].store
    check_oracle(cluster, reference)


def finished_counter_run():
    cluster_factory, app_factory = _factories()
    cluster = cluster_factory()
    cluster.run(app_factory())
    return cluster


def test_oracle_detects_divergence(counter_sweep):
    cluster = finished_counter_run()
    reference = counter_sweep.reference_snapshots
    check_oracle(cluster, reference)  # identical run passes
    bad = {name: b"\x00" * len(data) for name, data in reference.items()}
    with pytest.raises(OracleViolation, match="diverged"):
        check_oracle(cluster, bad)


def test_oracle_detects_duplicated_token(counter_sweep):
    """Bit-identical memory is not enough: two resting tokens for one
    lock (what a recovered manager used to mint for a lock it had never
    touched) fail the oracle."""
    cluster = finished_counter_run()
    reference = counter_sweep.reference_snapshots
    check_oracle(cluster, reference)
    lock_id, holder = next(
        (l, h.pid)
        for h in cluster.hosts
        for l, (has_token, _) in h.proto.locks.token_snapshot().items()
        if has_token
    )
    other = cluster.hosts[(holder + 1) % len(cluster.hosts)]
    other.proto.locks.token(lock_id).has_token = True
    with pytest.raises(OracleViolation, match=f"lock {lock_id}: 2 tokens"):
        check_oracle(cluster, reference)


# ======================================================================
# the monitor joins each point at its first crash step
# ======================================================================


def joins(sweep):
    """Record the step at which each of ``sweep``'s monitors attaches."""
    steps = []
    attach = sweep._attach_monitor

    def recorded(cluster):
        steps.append(cluster.engine.steps)
        return attach(cluster)

    sweep._attach_monitor = recorded
    return steps


def test_monitor_joins_a_point_at_its_first_crash_step():
    cluster_factory, app_factory = _factories()
    sweep = CrashSweep(cluster_factory, app_factory)
    sweep.run_reference()
    end = sweep.reference_steps
    steps = joins(sweep)
    single = CrashPoint("every", end // 2, 1, None)
    based = CrashPoint("sequential", end - 40, 2, (end // 3, 1))
    assert sweep.run_point(single).outcome == "recovered"
    assert sweep.run_point(based).outcome == "recovered"
    # past the end of the run: no crash, no join, nothing to judge
    late = sweep.run_point(CrashPoint("every", end + 100, 1, None))
    assert (late.outcome, late.error, late.crashes) == ("no_crash", None, 0)
    assert steps == [end // 2, end // 3]


def test_a_point_whose_prefix_drifts_from_the_reference_fails():
    """A monitor that joins at the first crash step relies on the prefix
    being the reference run, which it checked from step 0. An app
    factory that hands every run after the reference another seed breaks
    that: each point fails at its join, none is judged recovered."""
    seeds = iter(range(1, 100))

    def app_factory():
        return make_app("session", seed=next(seeds))

    sweep = CrashSweep(
        _factories()[0], app_factory, every=90, classes=("every",)
    )
    points = sweep.enumerate_points()[:3]
    for point in points:
        res = sweep.run_point(point)
        assert res.outcome == "failed"
        assert res.error == (
            "RuntimeError: prefix diverged from the reference run at step "
            f"{point.step}"
        )


# ======================================================================
# pinned schedules
# ======================================================================


@pytest.mark.parametrize("name", list(PINS))
def test_pin(name):
    """Each pinned schedule (tests/pins.py), run and judged by the sweep's
    verdict with monitor and oracle on, ends with the outcome its row
    names, and misses it under the mutant that undoes the fix the row
    guards."""
    schedule, outcome, guards = PINS[name]
    res = schedule.run()
    assert res.outcome == outcome, res.error
    with MUTANTS[guards]():
        res = schedule.run()
    assert res.outcome != outcome, f"{name} still passes under {guards}"


def test_a_schedule_is_a_picklable_value():
    """A schedule survives a pickle round trip, as a worker process needs
    it to; its config is sorted pairs, whatever order it came in."""
    schedule = PINS["provisional_grant_confirmed"].schedule
    assert pickle.loads(pickle.dumps(schedule)) == schedule
    assert Schedule("counter", 4, config={"steps": 2, "seed": 1}).config == (
        ("seed", 1), ("steps", 2),
    )


def test_schedule_run_is_the_sweeps_run_point():
    """``Schedule.run`` judges the same ``PointResult`` that ``run_point``
    of a sweep over the schedule's run gives, on two single crashes and
    a second crash against a base crash."""
    schedule = Schedule("counter", 4, config={"steps": 2, "n_elements": 256})
    sweep = schedule.sweep()
    sweep.run_reference()
    end = sweep.reference_steps
    for point in (
        CrashPoint("every", end // 4, 1),
        CrashPoint("every", end // 2, 3),
        CrashPoint("sequential", end - 40, 2, (end // 3, 1)),
    ):
        want = sweep.run_point(point)
        assert want.outcome == "recovered", want.error
        assert replace(schedule, point=point).run() == want


# ======================================================================
# overlapping failures (hold path + explicit degradation)
# ======================================================================


def test_overlapping_failure_holds_messages_then_degrades(mid_run_window):
    """Crash a *responder* inside another node's recovery: queries to it
    are held (not lost) while it is down, drained after it recovers, and
    the recovering requester then degrades with a clean diagnostic
    instead of silently diverging or hanging."""
    cluster_factory, app_factory = _factories()
    victim, step, begin, live = mid_run_window

    cluster = cluster_factory()
    other = (victim + 1) % 4
    cluster.schedule_crash_at_step(victim, step)
    cluster.schedule_crash_at_step(other, begin + max(1, (live - begin) // 4))
    with pytest.raises(OverlappingFailureError, match="single-fault"):
        cluster.run(app_factory())
    # the requester's query to the down responder took the hold path
    assert cluster.held_recovery_msgs >= 1


def test_recrash_of_recovering_host_restarts_recovery(
    counter_sweep, mid_run_window,
):
    """Crashing the same victim inside its own recovery window restarts
    recovery from the same stable state and still reaches the
    failure-free result (peers' logs are intact: not an overlap)."""
    cluster_factory, app_factory = _factories()
    victim, step, begin, live = mid_run_window
    reference = counter_sweep.reference_snapshots

    cluster = cluster_factory()
    cluster.schedule_crash_at_step(victim, step)
    cluster.schedule_crash_at_step(victim, begin + (live - begin) // 2)
    res = cluster.run(app_factory())
    assert res.crashes == 2
    assert res.recoveries == 1  # the first incarnation was killed
    assert cluster.hosts[victim].crashed_count == 2
    check_oracle(cluster, reference)


# ======================================================================
# deadlock diagnostics
# ======================================================================


class _StuckApp:
    """Minimal app: p0 blocks forever on a future nobody resolves."""

    name = "stuck"

    def configure(self, cluster):
        pass

    def init_shared(self, cluster):
        pass

    def init_state(self, pid):
        return {}

    def run(self, proc, state):
        if proc.pid == 0:
            yield Future("never resolved")

    def check_result(self, cluster):
        pass


def test_deadlock_error_includes_per_host_diagnostics():
    cluster = make_cluster(num_procs=2)
    with pytest.raises(RuntimeError) as exc_info:
        cluster.run(_StuckApp())
    msg = str(exc_info.value)
    assert "deadlock" in msg
    # one diagnostic line per host, with liveness and queue state
    assert "p0: live=True recovering=False finished=False" in msg
    assert "p1: live=True recovering=False finished=True" in msg
    assert "queued=" in msg


class _BarrierShortApp(_StuckApp):
    """p2 finishes without arriving: the others wait at episode 0 forever."""

    def run(self, proc, state):
        if proc.pid != 2:
            yield from proc.barrier()


def test_deadlock_error_names_the_barrier_managers_arrivals():
    cluster = make_cluster(num_procs=3)
    with pytest.raises(RuntimeError) as exc_info:
        cluster.run(_BarrierShortApp())
    msg = str(exc_info.value)
    assert msg.startswith("deadlock:")
    assert "p0: live=True recovering=False finished=False" in msg
    assert "barrier_wait=ep0" in msg
    assert "barrier ep0: manager=p0 arrived=[0, 1] next_episode=0" in msg
