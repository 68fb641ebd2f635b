"""Integration tests for the buddy-replication tier (DESIGN.md §9).

End-to-end claims: a replicated cluster mirrors committed checkpoints
into ring buddies and keeps acks flowing; buddy death re-targets the
stream; a protected node dying mid-transfer leaves the buddy on the
previous committed base; and — the tentpole — overlapping failures that
degrade an unreplicated cluster to :class:`OverlappingFailureError`
complete and validate when replication is on.
"""

from __future__ import annotations

import functools

import pytest

from repro.core import FtConfig
from repro.core.recovery import OverlappingFailureError
from repro.faultinject.mutants import MUTANTS
from repro.sim.trace import (
    ENGINE_EVENT, FAILURE, RECOVERY_BEGIN, RECOVERY_LIVE, timeline,
)
from tests.conftest import make_app, make_cluster

N = 4
FAST_DETECT = {"failure_detection_delay": 2e-3}


def replicated_cluster(**overrides):
    return make_cluster(
        num_procs=N, ft=True, l_fraction=0.2,
        ft_config=FtConfig(replicate=True), **overrides,
    )


def run_free(**overrides):
    """One failure-free replicated counter run; returns (cluster, result)."""
    cluster = replicated_cluster(**overrides)
    res = cluster.run(make_app("counter"))  # check_result validates
    return cluster, res


# ---------------------------------------------------------------------------
# crash-free: the ring replicates and acks flow
# ---------------------------------------------------------------------------
def test_ring_buddies_and_replica_traffic():
    cluster, res = run_free()
    assert res.traffic.bytes_by_category["replica"] > 0
    assert res.traffic.msgs_by_category["replica"] > 0
    from repro.core.replica import best_record

    for host in cluster.hosts:
        repl = host.ft.repl
        assert repl is not None
        assert repl.buddy == (host.pid + 1) % N
        # acks flowed: at most the final checkpoint (whose transfer the
        # app end can race) is still unacked
        assert repl.acked_seqno >= 1
        assert repl.lag <= 1
        # ... and the buddy actually holds a committed record at the ack
        buddy = cluster.hosts[repl.buddy]
        rec = best_record(buddy, host.pid)
        assert rec is not None and rec.seqno == repl.acked_seqno


def test_replication_off_means_no_replica_traffic():
    cluster = make_cluster(num_procs=N, ft=True, l_fraction=0.2)
    res = cluster.run(make_app("counter"))
    assert "replica" not in res.traffic.bytes_by_category
    assert all(h.ft.repl is None for h in cluster.hosts)


# ---------------------------------------------------------------------------
# buddy death mid-stream: retarget, then re-buddy after recovery
# ---------------------------------------------------------------------------
def test_buddy_death_retargets_then_rebuddies():
    # p1 is p0's buddy; kill it mid-run and watch p0's stream re-target
    # to the next live ring node (p2), then return to p1 once recovered
    _, free = run_free(**FAST_DETECT)
    cluster = replicated_cluster(**FAST_DETECT)
    events = timeline(cluster.engine, {"repl"})
    cluster.schedule_crash(1, at_time=0.3 * free.wall_time)
    res = cluster.run(make_app("counter"))
    assert res.crashes == 1 and res.recoveries == 1

    retargets = [e for e in events if e.detail.startswith("retarget")]
    p0_retargets = [e for e in retargets if e.pid == 0]
    # p0 lost its buddy (→ p2), then re-buddied back to p1 at recovery
    assert any("old=1 new=2" in e.detail for e in p0_retargets)
    assert any("new=1" in e.detail for e in p0_retargets[1:])
    # the final ring is the designated one again, fully synced
    for host in cluster.hosts:
        assert host.ft.repl.buddy == (host.pid + 1) % N
        assert cluster.hosts[host.ft.repl.buddy].replica_store.has(host.pid)


def test_recovered_node_resyncs_into_buddy():
    # after p1's crash+recovery its own stream starts a fresh epoch: its
    # buddy p2 must end up holding a committed record of the new
    # incarnation (full_sync on retarget/recovery, not an op tail on a
    # stale base)
    _, free = run_free(**FAST_DETECT)
    cluster = replicated_cluster(**FAST_DETECT)
    cluster.schedule_crash(1, at_time=0.3 * free.wall_time)
    cluster.run(make_app("counter"))
    host = cluster.hosts[1]
    repl = host.ft.repl
    assert repl.acked_seqno == host.ckpt_mgr.next_seqno - 1
    assert cluster.hosts[2].replica_store.store_for(1).keys() == [
        ("replica", repl.acked_seqno)
    ]


# ---------------------------------------------------------------------------
# torn replica: protected node dies between begin and commit
# ---------------------------------------------------------------------------
def test_protected_death_mid_transfer_leaves_committed_base():
    """Crash the protected node right after it sent begin(seqno): the
    buddy keeps the pending record invisible and serves the previous
    committed base until the recovered incarnation re-syncs."""
    ref = replicated_cluster(**FAST_DETECT)
    ref_events = timeline(ref.engine, {"repl"})
    ref.run(make_app("counter"))
    # pick p0's second checkpoint transfer so a committed base exists
    begins = [
        e for e in ref_events
        if e.pid == 0 and e.detail.startswith("begin seqno=2")
    ]
    assert begins, "reference run never began transferring ckpt 2"
    step = begins[0].step

    cluster = replicated_cluster(**FAST_DETECT)
    cluster.schedule_crash_at_step(0, step)
    seen = {}

    def check_buddy_store():
        # shortly after the crash, before recovery re-syncs: the buddy
        # holds ckpt 1 committed plus a torn (pending) ckpt 2
        store = cluster.hosts[1].replica_store.store_for(0)
        seen["keys"] = store.keys()
        seen["pending2"] = store.is_pending(("replica", 2))

    def on_failure(pid):
        if pid == 0 and "sched" not in seen:
            seen["sched"] = True
            cluster.engine.schedule(5e-4, check_buddy_store)

    cluster.engine.bus.subscribe(FAILURE, on_failure)
    res = cluster.run(make_app("counter"))  # check_result validates
    assert res.crashes == 1 and res.recoveries == 1
    assert seen["pending2"] is True
    assert ("replica", 1) in seen["keys"]


# ---------------------------------------------------------------------------
# the tentpole: overlapping failures survived
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def overlap_schedule():
    """A (first_crash, second_crash) time pair where the second victim
    dies inside the first victim's recovery window — discovered against
    the actual run rather than hard-coded, so timing-model changes keep
    the schedule meaningful."""
    free = make_cluster(num_procs=N, ft=True, l_fraction=0.2)
    t_free = free.run(make_app("counter")).wall_time

    probe_times = {}
    single = make_cluster(num_procs=N, ft=True, l_fraction=0.2)

    def mark(what, pid, *_):
        if pid == 3:
            probe_times.setdefault(what, single.engine.now)

    bus = single.engine.bus
    bus.subscribe(RECOVERY_BEGIN, functools.partial(mark, "begin"))
    bus.subscribe(RECOVERY_LIVE, functools.partial(mark, "live"))
    single.schedule_crash(3, at_time=0.4 * t_free)
    single.run(make_app("counter"))
    begin = min(probe_times.values())
    live = probe_times["live"]
    assert begin < live
    return 0.4 * t_free, begin + 0.25 * (live - begin)


@pytest.mark.parametrize("second_victim", [0, 1, 2])
def test_overlapping_failures_survived_with_replication(second_victim):
    t1, t2 = overlap_schedule()
    cluster = replicated_cluster()
    events = timeline(cluster.engine, {"repl"})
    cluster.schedule_crash(3, at_time=t1)
    cluster.schedule_crash(second_victim, at_time=t2)
    res = cluster.run(make_app("counter"))  # check_result validates
    assert res.crashes == 2 and res.recoveries == 2
    # at least one recovery actually read a buddy replica
    fetches = [e for e in events if e.detail.startswith("fetch kind=")]
    assert fetches, "no replica fetch despite overlapping failures"


def test_a_host_is_never_live_and_recovering_at_once():
    """``live`` alone says a host is up: the live switch clears
    ``recovering`` before it sets ``live``, and a crash clears both.
    Checked at every engine event of an overlapping double crash with
    replication on."""
    t1, t2 = overlap_schedule()
    cluster = replicated_cluster()
    both, recovering = set(), set()

    def check(event):
        for h in cluster.hosts:
            if h.recovering:
                recovering.add(h.pid)
                if h.live:
                    both.add(h.pid)

    cluster.engine.bus.subscribe(ENGINE_EVENT, check)
    cluster.schedule_crash(3, at_time=t1)
    cluster.schedule_crash(0, at_time=t2)
    res = cluster.run(make_app("counter"))
    check(None)
    assert res.crashes == res.recoveries == 2
    assert recovering == {0, 3} and not both


def test_overlapping_failures_degrade_without_replication():
    t1, t2 = overlap_schedule()
    cluster = make_cluster(num_procs=N, ft=True, l_fraction=0.2)
    cluster.schedule_crash(3, at_time=t1)
    cluster.schedule_crash(2, at_time=t2)
    with pytest.raises(OverlappingFailureError):
        cluster.run(make_app("counter"))


# ---------------------------------------------------------------------------
# the two sources of a recovery answer agree
# ---------------------------------------------------------------------------
def assert_live_and_replica_agree(app_name, crash=None):
    """Every answer node ``i``'s live image gives equals the one the image
    its ring buddy holds gives, modelled size included, once the run has
    quiesced (network drained); ``crash`` is a ``(step, victim)``.

    Knowingly coarser on the replica, with the reason:

    * ``tokens``: only ``has_token`` is compared. A release and a queued
      forward send no op, so the replica keeps ``held`` from the last
      acquire and never has successor pointers; ``ingest_handshakes``
      reads ``has_token`` and, as a chain-rebuild hint, the successor.
    * ``managed_owners``: a manager state created since the image was
      shipped, still owned by the manager itself, has sent no ``owner``
      op, so the replica may lack locks the live node lists with itself
      as owner (the requester then falls back to its own arithmetic).

    Everything else, the barrier log and the handshake's size included,
    is exact.
    """
    from repro.core.replica import FtImage, best_record

    def has_token(payload):
        return {lock: t[0] for lock, t in payload["tokens"].items()}

    cluster = replicated_cluster()
    if crash is not None:
        step, victim = crash
        cluster.schedule_crash_at_step(victim, step)
    cluster.run(make_app(app_name))
    assert cluster.recoveries == (crash is not None)
    cluster.engine.run()  # drain what the app's end left in flight
    assert not cluster.network.inflight_msgs
    asked = 0
    for host in cluster.hosts:
        i = host.pid
        live = FtImage.live(host.ft)
        replica = best_record(cluster.hosts[(i + 1) % N], i).image
        for j in (j for j in range(N) if j != i):
            want, want_size = live.answer("handshake", j)
            got, got_size = replica.answer("handshake", j)
            for field in (
                "rel_entries", "acq_mirror", "wn", "bar", "tckp", "bar_ep",
                "completed_seq",
            ):
                assert got[field] == want[field], (i, j, field)
            assert got_size == want_size, (i, j)
            assert has_token(got) == has_token(want), (i, j)
            for lock_id, owner in want["managed_owners"].items():
                assert got["managed_owners"].get(lock_id, i) == owner, (i, j)

            queries = [("home_diffs", None)]
            queries += [("page_diffs", p) for p in host.ft.logs.diff.pages()]
            ceiling = cluster.hosts[j].proto.vt
            queries += [
                ("starting_copy", (p, ceiling)) for p in host.proto.home.pages()
            ]
            for kind, detail in queries:
                assert replica.answer(kind, j, detail) == live.answer(
                    kind, j, detail
                ), (i, j, kind, detail)
            asked += 1 + len(queries)
    assert asked > 3 * N * (N - 1)


def test_checkpoint_restored_log_and_buddy_image_share_the_live_records():
    """FT records are values: the checkpoint's ``diff_log``, the log a
    recovery restores from it and the image the buddy holds carry the
    very entry objects the live log appended — and each is a holder of
    its own, untouched by what the live log trims or flushes later."""
    from repro.core.recovery import RecoveryManager
    from repro.core.replica import best_record

    def entries(log):
        return [e for es in log.per_page.values() for e in es]

    def state(log):
        return (
            [id(e) for e in entries(log)], log.next_seq, log.flushed,
            log.volatile_bytes, log.unsaved_bytes, log.saved_bytes,
        )

    cluster, _ = run_free()
    cluster.engine.run()  # drain the ops the app's end left in flight
    host = max(cluster.hosts, key=lambda h: len(entries(h.ft.logs.diff)))
    live = host.ft.logs.diff
    by_seq = {e.seq: e for e in entries(live)}
    assert len(by_seq) == len(entries(live)) > 0

    ckpt = host.ckpt_mgr.latest
    image = best_record(cluster.hosts[(host.pid + 1) % N], host.pid).image
    # restore the way a recovery does: fresh protocol + FT manager
    host.proto = proto = host.make_protocol()
    cluster._install_ft(host)
    RecoveryManager(host)._restore_from_checkpoint(proto, host.ft, ckpt)
    restored = host.ft.logs.diff

    for copy in (ckpt.diff_log, restored, image.logs.diff):
        shared = [e for e in entries(copy) if e.seq in by_seq]
        assert shared and all(e is by_seq[e.seq] for e in shared)
    # the buddy followed every append since its image was shipped
    assert image.logs.diff.next_seq == live.next_seq
    assert {e.seq for e in entries(image.logs.diff)} >= set(by_seq)
    # what was read back from disk is on disk; restoring created nothing
    assert [id(e) for e in entries(restored)] == [
        id(e) for e in entries(ckpt.diff_log)
    ]
    assert restored.flushed == restored.next_seq == ckpt.diff_log.next_seq
    assert restored.unsaved_bytes == 0 and restored.bytes_created == 0

    before = [state(log) for log in (ckpt.diff_log, restored, image.logs.diff)]
    live.flush()
    for page in live.pages():
        live.trim_page(page, host.pid, 10**9)
    assert live.volatile_bytes == 0
    assert before == [
        state(log) for log in (ckpt.diff_log, restored, image.logs.diff)
    ]


#: ``(step, victim)``: p0's live switch grants on a repair forward whose
#: request stamp died with it, so the provisional grant draws an AcqAck
#: and a ``rel_fix`` op rewrites the buddy's rel entry. Not a crash pin:
#: with ``rel_fix`` dropped the run still recovers, since no later
#: recovery reads the buddy's stale prediction; only the agreement of the
#: two answers shows that mutant
SESSION_CRASH = (51, 0)


@pytest.mark.parametrize(
    "app_name,crash",
    [("counter", None), ("session", None), ("session", SESSION_CRASH)],
)
def test_live_image_and_buddy_replica_answer_alike(app_name, crash):
    assert_live_and_replica_agree(app_name, crash)


def test_answer_agreement_catches_a_dropped_op_case():
    """Seeded mutation: an op application that ignores ``rel_fix`` leaves
    a predicted timestamp in the replica's rel log."""
    with MUTANTS["rel_fix_dropped"](), \
            pytest.raises(AssertionError, match="rel_entries"):
        assert_live_and_replica_agree("session", SESSION_CRASH)
