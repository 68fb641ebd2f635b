"""Integration tests for single-fault recovery (§4.3).

The central claim the paper only proved on paper: LLT/CGC retain exactly
enough state for any single process to recover at any time. We crash
each kind of process (ordinary, lock manager, barrier manager, home) at
many points and check the final results against the golden model.
"""

import functools

import pytest

from repro.faultinject.mutants import MUTANTS
from tests.conftest import make_app, make_cluster
from tests.pins import PINS


def golden_time(name, n=8, l_fraction=0.2, **kw):
    cluster = make_cluster(num_procs=n, ft=True, l_fraction=l_fraction)
    res = cluster.run(make_app(name, **kw))
    return res.wall_time


@pytest.fixture(scope="module")
def golden():
    """``golden_time``, run once per distinct configuration in this module
    (runs are deterministic: the failure-free runtime is a pure function
    of its arguments)."""
    return functools.lru_cache(maxsize=None)(golden_time)


def run_with_crash(name, victim, at_time, n=8, l_fraction=0.2, **kw):
    cluster = make_cluster(num_procs=n, ft=True, l_fraction=l_fraction)
    cluster.schedule_crash(victim, at_time=at_time)
    res = cluster.run(make_app(name, **kw))  # check_result validates
    return cluster, res


# ---------------------------------------------------------------------------
# broad matrix on the cheap counter app
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("victim", [0, 1, 3, 7])
@pytest.mark.parametrize("frac", [0.1, 0.3, 0.5])
def test_counter_crash_matrix(victim, frac, golden):
    T = golden("counter")
    cluster, res = run_with_crash("counter", victim, T * frac)
    assert res.crashes == 1
    assert res.recoveries == 1


@pytest.mark.parametrize("victim", [1, 6])
def test_counter_late_crash(victim, golden):
    """A crash near the end either recovers cleanly or is a no-op (the
    victim may already have finished); results are validated either way."""
    T = golden("counter")
    cluster, res = run_with_crash("counter", victim, T * 0.75)
    assert res.crashes == res.recoveries


# ---------------------------------------------------------------------------
# one representative point per real app / victim kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("victim,frac", [(3, 0.1), (3, 0.5), (0, 0.3), (2, 0.6)])
def test_water_nsq_recovery(victim, frac, golden):
    T = golden("water-nsq")
    cluster, res = run_with_crash("water-nsq", victim, T * frac)
    assert res.recoveries == 1


@pytest.mark.parametrize("victim,frac", [(3, 0.15), (0, 0.5), (5, 0.4)])
def test_water_spatial_recovery(victim, frac, golden):
    T = golden("water-spatial")
    run_with_crash("water-spatial", victim, T * frac)


@pytest.mark.parametrize("victim,frac", [(3, 0.2), (0, 0.5), (2, 0.1), (5, 0.7)])
def test_barnes_recovery(victim, frac, golden):
    T = golden("barnes")
    run_with_crash("barnes", victim, T * frac)


@pytest.mark.parametrize("victim,frac", [(1, 0.3), (0, 0.6)])
def test_lu_recovery(victim, frac, golden):
    T = golden("lu")
    run_with_crash("lu", victim, T * frac)


# ---------------------------------------------------------------------------
# targeted scenarios
# ---------------------------------------------------------------------------


def test_crash_before_first_checkpoint_restarts_from_initial(golden):
    """Very early crash: the victim restarts from the virtual checkpoint 0."""
    T = golden("counter")
    cluster, res = run_with_crash("counter", 3, T * 0.01)
    assert cluster.hosts[3].recovered_count == 1
    # no real checkpoint existed yet at crash time in most configs; either
    # way the result check inside run() passed


def test_crash_of_barrier_manager(golden):
    """Process 0 is the barrier manager; its episode state must rebuild."""
    T = golden("barnes")
    cluster, res = run_with_crash("barnes", 0, T * 0.4)
    mgr = cluster.hosts[0].proto.barrier_mgr
    assert mgr is not None
    assert mgr.next_episode > 0
    # its barrier log came back too (from the peers' in the handshakes),
    # and the new incarnation kept appending to it: no gap up to the end
    history = list(cluster.hosts[0].ft.logs.bar)
    assert history and history[-1] == mgr.next_episode - 1
    assert history == list(range(history[0], mgr.next_episode))


def test_crash_with_llt_aggressively_trimming(golden):
    """Small L: many checkpoints, heavy trimming — recovery must still
    find every diff it needs (Rule 3 end-to-end)."""
    T = golden("water-spatial", l_fraction=0.02)
    cluster, res = run_with_crash(
        "water-spatial", 3, T * 0.6, l_fraction=0.02
    )
    # trimming really happened, on every node
    assert all(h.ft.logs.diff.bytes_discarded > 0 for h in cluster.hosts)


def test_recovered_process_ft_state_reusable(golden):
    """After recovery the process checkpoints and trims again normally."""
    T = golden("water-spatial", l_fraction=0.05)
    cluster, res = run_with_crash(
        "water-spatial", 3, T * 0.3, l_fraction=0.05, steps=4
    )
    h = cluster.hosts[3]
    assert h.ft.stats.checkpoints_taken >= 1


def test_crash_noop_after_finish(golden):
    """A crash scheduled after the app finished is ignored."""
    T = golden("counter")
    cluster, res = run_with_crash("counter", 3, T * 100)
    assert res.crashes == 0
    assert res.recoveries == 0


def test_recovery_traffic_is_categorized(golden):
    T = golden("counter")
    cluster, res = run_with_crash("counter", 3, T * 0.4)
    assert res.traffic.bytes_by_category["recovery"] > 0


FAST_DETECT = {"failure_detection_delay": 2e-3}


@pytest.fixture(scope="module")
def first_crash_runtime(golden):
    """Runtime of counter on 8 nodes whose p3 fail-stops at 0.2 of the
    failure-free runtime, detected after 2 ms: where the two-crash
    schedules below place their second crash."""
    cluster = make_cluster(num_procs=8, ft=True, l_fraction=0.2, **FAST_DETECT)
    cluster.schedule_crash(3, at_time=golden("counter") * 0.2)
    res = cluster.run(make_app("counter"))
    assert res.recoveries == 1
    return res.wall_time


def test_two_sequential_failures_different_victims(golden, first_crash_runtime):
    """Single-fault at a time, but repeated: crash 3, recover, crash 5.

    A short failure-detection delay keeps the two recoveries strictly
    sequential (the paper's single-fault assumption).
    """
    T = golden("counter")
    T1 = first_crash_runtime
    cluster = make_cluster(num_procs=8, ft=True, l_fraction=0.2, **FAST_DETECT)
    cluster.schedule_crash(3, at_time=T * 0.2)
    cluster.schedule_crash(5, at_time=T1 * 0.55)
    res = cluster.run(make_app("counter"))
    assert res.crashes == res.recoveries
    assert res.crashes >= 1


def test_same_victim_crashes_twice(golden, first_crash_runtime):
    """Crash p3, then crash p3 again — whenever the second crash lands.

    The second fail-stop may hit while p3 is still *recovering* from the
    first; a crash of a recovering process kills the recovery incarnation
    and restarts recovery from the same stable state, so every crash that
    interrupts a recovery yields one fewer completed recovery than
    crashes, and the final recovery always completes.
    """
    T = golden("counter")
    T1 = first_crash_runtime
    cluster = make_cluster(num_procs=8, ft=True, l_fraction=0.2, **FAST_DETECT)
    cluster.schedule_crash(3, at_time=T * 0.2)
    cluster.schedule_crash(3, at_time=T1 * 0.55)
    res = cluster.run(make_app("counter"))
    # every crash is counted; only recoveries that went live count, so
    # crashes - recoveries = number of recoveries killed mid-flight
    assert res.crashes == 2
    assert 1 <= res.recoveries <= 2
    assert cluster.hosts[3].recovered_count == res.recoveries
    assert cluster.hosts[3].live and cluster.hosts[3].finished


def test_crash_during_recovery_restarts_recovery(golden):
    """Regression: a fail-stop of a *recovering* host must not be ignored.

    The second crash is pinned inside the first recovery's window (after
    detection, before the recovery completes), so it always kills a live
    recovery incarnation. The restarted recovery must finish and the run
    must produce the failure-free result.
    """
    T = golden("counter")
    cluster = make_cluster(num_procs=8, ft=True, l_fraction=0.2, **FAST_DETECT)
    crash_t = T * 0.2
    # recovery starts at crash_t + 2ms; the restore disk read alone takes
    # >= 10ms (seek), so crash_t + 6ms is strictly inside the recovery
    cluster.schedule_crash(3, at_time=crash_t)
    cluster.schedule_crash(3, at_time=crash_t + 6e-3)
    res = cluster.run(make_app("counter"))
    assert res.crashes == 2
    assert res.recoveries == 1  # first incarnation was killed mid-recovery
    assert cluster.hosts[3].crashed_count == 2
    assert cluster.hosts[3].recovered_count == 1
    assert cluster.hosts[3].live and cluster.hosts[3].finished


def test_a_repaired_forward_carries_the_waiters_stamp(monkeypatch):
    """p1 fail-stopped after step 200 of a 4-node counter run, holding
    lock 0's token with p2 queued behind it; the forward died with p1.
    The manager keeps each request's stamp in its chain, so the forward
    it repairs carries p2's own: p1's grant is exact (not provisional),
    ships only the notices after that stamp, and draws no AcqAck."""
    from repro.dsm.messages import AcqAck, LockForward, LockGrant
    from repro.dsm.protocol import DsmProcess
    from repro.observe import InvariantMonitor
    from repro.sim.trace import SEND

    cluster = make_cluster(num_procs=4, ft=True)
    monitor = InvariantMonitor(cluster, ring_size=0)
    sent, repaired = [], []
    cluster.engine.bus.subscribe(SEND, lambda *e: sent.append(e))
    repair, post = DsmProcess.repair_forwards_for, DsmProcess._post

    def repair_with_spy(proto, recovered):
        def spy(dst, msg):
            if isinstance(msg, LockForward):
                pending = cluster.hosts[msg.acquirer].proto._pending_acquires
                repaired.append((dst, msg, pending[msg.lock_id].acq_vt))
            post(proto, dst, msg)

        proto._post = spy
        try:
            repair(proto, recovered)
        finally:
            del proto._post

    monkeypatch.setattr(DsmProcess, "repair_forwards_for", repair_with_spy)
    cluster.schedule_crash_at_step(1, 200)
    res = cluster.run(make_app("counter"))
    assert res.crashes == res.recoveries == 1
    assert monitor.finish() == []
    [(dst, fwd, stamp)] = repaired
    assert (dst, fwd.lock_id, fwd.acquirer) == (1, 0, 2)
    assert fwd.acq_vt is stamp  # the waiter's request stamp, kept
    [grant] = [
        m for src, to, m in sent
        if isinstance(m, LockGrant) and (src, to, m.seq) == (1, 2, fwd.seq)
    ]
    assert not grant.provisional and grant.notices
    assert all(wn.interval > stamp[wn.creator] for wn in grant.notices)
    assert not [m for _, _, m in sent if isinstance(m, AcqAck)]


# ---------------------------------------------------------------------------
# DESIGN.md §6 root cause 1 (the other step pins: tests/pins.py)
# ---------------------------------------------------------------------------


def kvstore_32_run(crash_at=None):
    """Default kvstore on 32 nodes, p5 fail-stopped at ``crash_at``."""
    from repro.apps.kvstore import KvStoreApp, KvStoreConfig

    cluster = make_cluster(num_procs=32, ft=True, l_fraction=0.1)
    if crash_at is not None:
        cluster.schedule_crash(5, at_time=crash_at)
    return cluster.run(KvStoreApp(KvStoreConfig()))  # check_result validates


def test_kvstore_32_procs_crash_p5_at_half_verifies():
    """``python -m repro kvstore --procs 32 --ft --crash 5@0.5``, a smoke:
    a home's logged diff used to carry a remote writer's bytes, and the
    recovered p5 replayed it over newer data (``scan sum 1030.0 !=
    1033.0``). With that fix undone the run now verifies anyway, as does
    every schedule a bounded search tried (each of the 32 victims at
    0.05...0.95 of the run, and after every 30th step up to 4590);
    ``test_fuzz_2049_crash_p1_at_every_7th_step_verifies`` is the pin."""
    res = kvstore_32_run(0.5 * kvstore_32_run().wall_time)
    assert res.crashes == 1 and res.recoveries == 1


def test_fuzz_2049_crash_p1_at_every_7th_step_verifies():
    """``FuzzApp(2049)``, 8 procs, p1 fail-stopped after every 7th engine
    step of the 924-step run. Without the home-side diff rule (mutant
    ``home_twin_unpatched``) 69 of those steps, 343...819, end with ``p1
    round 0: saw sum 117.0, expected 118``: p0's logged diff carried p1's
    bytes and reverted one cell on replay. Step 462 is the pin."""
    from tests.fuzz_app import N_PROCS, FuzzApp

    def run(step):
        cluster = make_cluster(num_procs=N_PROCS, ft=True, l_fraction=0.05)
        cluster.schedule_crash_at_step(1, step)
        cluster.run(FuzzApp(2049))  # check_result validates

    for step in range(7, 924, 7):
        run(step)
    with MUTANTS["home_twin_unpatched"](), \
            pytest.raises(AssertionError, match="saw sum 117.0, expected 118"):
        run(462)


# ---------------------------------------------------------------------------
# sequential failures: the second fail-stop strictly after the first
# victim went live (DESIGN.md §6, root cause 3)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", [name for name in PINS if name.startswith("self_grant_twins_")]
)
def test_sequential_failures_recover(name):
    """Both victims recover to the failure-free memory, and a restored
    self-grant twin is not logged twice (``test_pin`` judges the rest)."""
    schedule = PINS[name].schedule
    free = schedule.cluster()
    free.run(schedule.make_app())
    cluster = schedule.cluster()
    point = schedule.point
    for step, victim in (point.base, (point.step, point.victim)):
        cluster.schedule_crash_at_step(victim, step)
    res = cluster.run(schedule.make_app())
    assert res.crashes == res.recoveries == 2
    assert [cluster.shared_snapshot(r).tobytes() for r in cluster.regions] == [
        free.shared_snapshot(r).tobytes() for r in free.regions
    ]
    for host in cluster.hosts:
        for bucket in host.ft.logs.rel.entries:
            mirrors = [(e.lock_id, e.acq_t) for e in bucket if e.local]
            assert len(mirrors) == len(set(mirrors))
