"""Integration tests for the FT layer in failure-free runs:
logging, checkpointing, LLT and CGC invariants (§4.2, §4.4, §5)."""

import pytest

from repro.core import FtConfig
from repro import DsmCluster, DsmConfig
from repro.core import LogOverflowPolicy

from tests.conftest import make_app, make_cluster


def run_ft(name="counter", l_fraction=0.1, n=8, ft_config=None, **app_kw):
    cluster = make_cluster(
        num_procs=n, ft=True, l_fraction=l_fraction, ft_config=ft_config
    )
    res = cluster.run(make_app(name, **app_kw))
    return cluster, res


@pytest.fixture(scope="module")
def shared_run():
    """``run_ft`` made once per argument set, for the tests that only
    read the cluster and the result (each run is deterministic)."""
    runs = {}

    def get(name, l_fraction=0.1, **app_kw):
        key = (name, l_fraction, tuple(sorted(app_kw.items())))
        if key not in runs:
            runs[key] = run_ft(name, l_fraction, **app_kw)
        return runs[key]

    return get


def test_results_identical_with_ft_enabled(app_name, shared_run):
    """Fault tolerance must not change application results."""
    cluster, _ = shared_run(app_name)
    # check_result already ran inside cluster.run


def test_checkpoints_taken_under_log_overflow():
    cluster, res = run_ft("counter", l_fraction=0.02)
    ckpts = [s.checkpoints_taken for s in res.ft_stats]
    assert sum(ckpts) > 0
    # higher L -> fewer checkpoints
    _, res2 = run_ft("counter", l_fraction=0.5)
    assert sum(s.checkpoints_taken for s in res2.ft_stats) <= sum(ckpts)


def test_diff_logs_grow_and_get_saved(shared_run):
    cluster, res = shared_run("water-spatial")
    for h in cluster.hosts:
        log = h.ft.logs.diff
        assert log.bytes_created > 0
        if h.ft.stats.checkpoints_taken:
            assert h.ft.stats.logs_saved_bytes > 0


def test_llt_discards_logs(shared_run):
    cluster, res = shared_run("water-spatial", 0.05, steps=5)
    discarded = sum(h.ft.logs.diff.bytes_discarded for h in cluster.hosts)
    created = sum(h.ft.logs.diff.bytes_created for h in cluster.hosts)
    assert created > 0
    assert discarded > 0, "LLT should discard once trimming info propagates"


def test_llt_disabled_keeps_everything():
    cfg = FtConfig(llt_enabled=False)
    cluster, _ = run_ft("water-spatial", l_fraction=0.05, ft_config=cfg, steps=4)
    assert all(h.ft.logs.diff.bytes_discarded == 0 for h in cluster.hosts)


def test_cgc_bounds_checkpoint_window(shared_run):
    cluster, _ = shared_run("water-spatial", 0.05, steps=5)
    for h in cluster.hosts:
        assert h.ckpt_mgr.max_window <= 4  # paper: at most 3 + our seed


def test_cgc_disabled_window_grows():
    from repro.faultinject.mutants import MUTANTS

    cluster = make_cluster(num_procs=8, ft=True, l_fraction=0.03)
    with MUTANTS["cgc"]():  # every CGC pass collects nothing
        cluster.run(make_app("water-spatial", steps=5))
    windows = [h.ckpt_mgr.max_window for h in cluster.hosts]
    cluster2, _ = run_ft("water-spatial", l_fraction=0.03, steps=5)
    windows2 = [h.ckpt_mgr.max_window for h in cluster2.hosts]
    assert max(windows) > max(windows2)


def test_rel_logs_bounded_by_rule2():
    cluster, _ = run_ft("water-nsq", l_fraction=0.05, steps=4)
    for h in cluster.hosts:
        # bounds may have advanced since the last checkpoint-time trim;
        # run LLT once more, then the Rule 2 invariant must hold exactly
        h.ft.run_llt()
        for j in range(cluster.config.num_procs):
            bound = h.ft.trim.rel_bound(j)
            for e in h.ft.logs.rel.for_peer(j):
                assert e.acq_t[j] > bound or bound == 0


def test_wn_log_trimming_respects_rule1():
    cluster, _ = run_ft("water-spatial", l_fraction=0.05, steps=4)
    for h in cluster.hosts:
        keep_from = h.ft.trim.wn_keep_from()
        own = h.proto.notices.own_after(h.pid, 0)
        # trimming ran at checkpoints; anything older than the bound at
        # that moment is gone, so the oldest retained own notice can be
        # below the *current* bound but never below 1
        assert all(n.interval >= 1 for n in own)


def test_piggyback_traffic_accounted(shared_run):
    cluster, res = shared_run("water-spatial")
    assert res.traffic.ft_bytes > 0
    assert res.traffic.ft_overhead_percent() < 50


def test_piggyback_disabled_no_ft_traffic_but_no_gc(monkeypatch):
    from repro.core.ftmanager import FtManager

    monkeypatch.setattr(FtManager, "piggyback_for", lambda self, dst: None)
    cluster, res = run_ft("water-spatial", steps=3)
    assert res.traffic.ft_bytes == 0
    # without propagated Tckp, Tmin stays zero and CGC frees nothing
    assert all(h.ckpt_mgr.pages_discarded_bytes == 0 for h in cluster.hosts)


def test_disk_traffic_recorded(shared_run):
    cluster, res = shared_run("water-spatial", 0.05)
    total_disk = sum(b for b, _ in res.disk_stats)
    assert total_disk > 0
    for h in cluster.hosts:
        if h.ft.stats.checkpoints_taken:
            assert h.disk.write_time > 0


def test_log_ckpt_time_bucket_populated(shared_run):
    from repro.sim.node import TimeBucket

    cluster, res = shared_run("water-spatial", 0.05)
    lc = sum(ts.seconds[TimeBucket.LOG_CKPT] for ts in res.time_stats)
    assert lc > 0


def test_never_policy_takes_no_checkpoints():
    """An OF threshold the run never reaches: logging without checkpoints."""
    cluster = DsmCluster(
        DsmConfig(num_procs=4),
        ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(1e6, fp),
    )
    res = cluster.run(make_app("counter"))
    assert all(s.checkpoints_taken == 0 for s in res.ft_stats)


def test_figure4_log_points_recorded(shared_run):
    cluster, res = shared_run("water-spatial", 0.05, steps=5)
    any_points = False
    for s in res.ft_stats:
        for ckpt_no, size in s.log_points:
            assert ckpt_no >= 1 and size >= 0
            any_points = True
    assert any_points


def test_rel_acq_entry_counts_equal_the_scan():
    """``count()`` is an integer kept beside the buckets (the observer's
    ``ft.rel_log_entries`` reads it per host per sample); after a seeded
    run with trimming, a crash and a recovery it must equal the scan it
    replaced, on every live log and on every buddy's image of one."""
    cluster = make_cluster(
        num_procs=4, ft=True, l_fraction=0.1, ft_config=FtConfig(replicate=True)
    )
    t_free = make_cluster(
        num_procs=4, ft=True, l_fraction=0.1, ft_config=FtConfig(replicate=True)
    ).run(make_app("kvstore")).wall_time
    cluster.schedule_crash(1, 0.5 * t_free)
    result = cluster.run(make_app("kvstore"))
    assert (result.crashes, result.recoveries) == (1, 1)
    all_logs = [h.ft.logs for h in cluster.hosts]
    for h in cluster.hosts:
        for pid in h.replica_store.protected_pids():
            store = h.replica_store.store_for(pid)
            all_logs += [store.get(k).image.logs for k in store.keys()]
    assert len(all_logs) > 4
    assert sum(s.rel_entries_trimmed for s in result.ft_stats) > 0
    assert any(logs.rel.count() for logs in all_logs)
    for logs in all_logs:
        assert logs.rel.count() == sum(map(len, logs.rel.entries))
        assert logs.acq.count() == sum(map(len, logs.acq.entries))
    logs.rel.clear(), logs.acq.clear()
    assert (logs.rel.count(), logs.acq.count()) == (0, 0)
    assert not any(logs.rel.entries) and not any(logs.acq.entries)


@pytest.mark.parametrize("name", ["counter", "kvstore", "session", "barnes"])
def test_exact_grant_stamps_need_no_acq_ack(name):
    """Every grant of a failure-free run is made from the request's
    stamp, so the grantor logs the acquirer's actual post-acquire vt: the
    two halves of each §4.2.1 pair are equal when the acquire completes,
    and no AcqAck (nor the ``rel_fix`` replica op one would ship) is
    sent."""
    from repro.dsm.messages import AcqAck, ReplicaUpdate
    from repro.sim.trace import LOCK_ACQUIRED, SEND

    cluster = make_cluster(
        num_procs=4, ft=True, ft_config=FtConfig(replicate=True)
    )
    bus, hosts = cluster.engine.bus, cluster.hosts
    sent, pairs = [], []
    bus.subscribe(SEND, lambda src, dst, msg: sent.append(msg))

    def acquired(pid, lock_id, grantor, local):
        if not local:
            entry = hosts[grantor].ft.logs.rel.entries[pid][-1]
            pairs.append((entry.lock_id, entry.acq_t, entry.provisional))
            assert pairs[-1] == (lock_id, hosts[pid].proto.vt, False)

    bus.subscribe(LOCK_ACQUIRED, acquired)
    cluster.run(make_app(name))
    cluster.engine.run()  # drain what the app's end left in flight
    assert pairs, "no remote grant: nothing was checked"
    assert not [m for m in sent if isinstance(m, AcqAck)]
    ops = [m.body[0] for m in sent
           if isinstance(m, ReplicaUpdate) and m.kind == "op"]
    assert "rel" in ops and "rel_fix" not in ops
