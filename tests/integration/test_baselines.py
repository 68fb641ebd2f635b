"""Integration tests for the comparison baselines (paper §1, §2).

* whole-page logging (Richard & Singhal style),
* coordinated checkpointing with Chandy-Lamport-style marker rounds and
  global-rollback recovery,
* the WAN meta-cluster topology that motivates the paper's scheme.
"""

import numpy as np
import pytest

from repro import DsmCluster, DsmConfig
from repro.baselines import CoordinatedCluster, PageLoggingCluster
from repro.core import LogOverflowPolicy
from repro.sim.network import MetaClusterConfig
from repro.sim.trace import (
    CHECKPOINT_TAKEN, CKPT_WRITE_BEGIN, CKPT_WRITE_END, timeline,
)

from tests.conftest import make_app, make_cluster

# The fault-free runs below are shared by the tests of this module, which
# only read them: each is deterministic, so one run stands for every copy.


@pytest.fixture(scope="module")
def page_logged():
    """A fault-free 8-node page-logging water-nsq run (result validated)."""
    c = PageLoggingCluster(DsmConfig(num_procs=8), l_fraction=0.1)
    c.run(make_app("water-nsq"))
    return c


@pytest.fixture(scope="module")
def coordinated_rounds():
    """A fault-free 8-node coordinated water-spatial run at L = 0.05."""
    c = CoordinatedCluster(DsmConfig(num_procs=8), l_fraction=0.05)
    c.run(make_app("water-spatial"))
    return c


@pytest.fixture(scope="module")
def coordinated_wall_time():
    """app -> the fault-free wall time of its 8-node coordinated run at
    L = 0.1, made once per app."""
    times = {}

    def wall_time(app_name):
        if app_name not in times:
            c = CoordinatedCluster(DsmConfig(num_procs=8), l_fraction=0.1)
            times[app_name] = c.run(make_app(app_name)).wall_time
        return times[app_name]

    return wall_time


# ---------------------------------------------------------------------------
# page logging
# ---------------------------------------------------------------------------


def test_page_logging_correct_and_bigger(page_logged):
    diff_cluster = make_cluster(num_procs=8, ft=True, l_fraction=0.1)
    diff_cluster.run(make_app("water-nsq"))
    d = sum(h.ft.logs.diff.bytes_created for h in diff_cluster.hosts)
    p = sum(h.ft.logs.diff.bytes_created for h in page_logged.hosts)
    assert p > 2 * d


def test_page_logging_recovery_works(page_logged):
    T = page_logged.engine.now
    c2 = PageLoggingCluster(DsmConfig(num_procs=8), l_fraction=0.1)
    c2.schedule_crash(3, at_time=T * 0.4)
    res = c2.run(make_app("water-nsq"))
    assert res.recoveries == 1


# ---------------------------------------------------------------------------
# coordinated checkpointing
# ---------------------------------------------------------------------------


def test_coordinated_commit_drops_the_barrier_managers_history_too():
    """"Drop ALL volatile logs" includes the barrier log (once it lived in
    ``dsm/`` and survived every commit): after the last committed round
    every node, the manager too, holds only the episodes since."""
    c = CoordinatedCluster(DsmConfig(num_procs=4), l_fraction=0.05)
    c.run(make_app("barnes"))
    mgr = c.hosts[0].proto.barrier_mgr
    assert c.hosts[0].ft.coord.rounds_committed >= 2
    for h in c.hosts:
        bar = list(h.ft.logs.bar)
        assert len(bar) < mgr.next_episode
        assert bar == list(range(mgr.next_episode - len(bar), mgr.next_episode))


def test_coordinated_round_commits_and_discards(coordinated_rounds):
    c = coordinated_rounds
    ft0 = c.hosts[0].ft
    assert ft0.coord.rounds_committed >= 1
    assert ft0.coord.round_latencies
    # after a commit, nothing older than the round survives anywhere
    for h in c.hosts:
        assert h.ft.committed_round == ft0.committed_round
        coord_keys = [
            k for k in h.store.keys() if isinstance(k, tuple) and k[0] == "coord"
        ]
        assert all(k[1] >= h.ft.committed_round for k in coord_keys)
        for copies in h.ckpt_mgr.page_copies.values():
            assert len(copies) <= 2  # seed may linger until first commit


def test_coordinated_checkpoints_are_aligned(coordinated_rounds):
    rounds = {h.ft.round_id for h in coordinated_rounds.hosts}
    assert len(rounds) == 1


def test_coordinated_checkpoints_are_on_the_bus():
    """A coordinated snapshot emits what an independent checkpoint does:
    one ``CHECKPOINT_TAKEN`` per counted checkpoint, inside its write."""
    c = CoordinatedCluster(DsmConfig(num_procs=4), l_fraction=0.02)
    events = timeline(c.engine, {"ckpt", "ckpt_write"})
    c.run(make_app("counter"))
    taken = [(e.pid, e.args[0]) for e in events if e.event == CHECKPOINT_TAKEN]
    assert sorted(taken) == [
        (h.pid, k + 1) for h in c.hosts
        for k in range(h.ft.stats.checkpoints_taken)
    ]
    assert len(taken) >= 8
    kinds = [e.event for e in events if e.pid == 0]
    assert kinds[:3] == [CKPT_WRITE_BEGIN, CKPT_WRITE_END, CHECKPOINT_TAKEN]


@pytest.mark.parametrize("app_name2", ["counter", "water-spatial", "barnes"])
# at 0.9 of counter's run most hosts have finished before the victim
# fails, and all of them run again after the rollback
@pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
def test_coordinated_global_rollback(app_name2, frac, coordinated_wall_time):
    T = coordinated_wall_time(app_name2)
    c2 = CoordinatedCluster(DsmConfig(num_procs=8), l_fraction=0.1)
    c2.schedule_crash(3, at_time=T * frac)
    res = c2.run(make_app(app_name2))  # validates result
    assert res.recoveries == 1
    # everyone rolled back (not just the victim)
    assert all(h.recovered_count == 1 for h in c2.hosts)


def test_rollback_loses_everyones_work(coordinated_wall_time):
    """The cost the paper avoids: rollback re-executes on all nodes, so
    the stretch exceeds the single-victim replay of the independent
    scheme for the same crash point."""
    ind = make_cluster(num_procs=8, ft=True, l_fraction=0.1)
    T = ind.run(make_app("water-spatial")).wall_time

    ind2 = make_cluster(num_procs=8, ft=True, l_fraction=0.1)
    ind2.schedule_crash(3, at_time=T * 0.6)
    t_ind = ind2.run(make_app("water-spatial")).wall_time

    Tc = coordinated_wall_time("water-spatial")
    co2 = CoordinatedCluster(DsmConfig(num_procs=8), l_fraction=0.1)
    co2.schedule_crash(3, at_time=Tc * 0.6)
    t_co = co2.run(make_app("water-spatial")).wall_time

    # both recover correctly; the comparison itself is reported by the
    # benchmark harness — here we only require both to terminate and the
    # rollback to have restarted every node
    assert all(h.recovered_count == 1 for h in co2.hosts)
    assert t_ind > T and t_co > Tc


def test_coordinated_round_latency_grows_with_wan():
    """The paper's motivating claim (§1): global coordination gets
    expensive on meta-clusters. The commit latency of a coordinated
    round must grow roughly with the WAN latency; the independent
    scheme has no such round at all."""
    lat = {}
    for wan in (0.5e-3, 5e-3):
        c = CoordinatedCluster(
            DsmConfig(num_procs=8),
            l_fraction=0.05,
            net_config=MetaClusterConfig(
                cluster_size=4, wan_latency=wan, wan_bandwidth=50e6
            ),
        )
        c.run(make_app("water-spatial"))
        ls = c.hosts[0].ft.coord.round_latencies
        assert ls, f"no committed round at wan={wan}"
        lat[wan] = min(ls)
    assert lat[5e-3] > lat[0.5e-3] + 2 * (5e-3 - 0.5e-3), lat


# ---------------------------------------------------------------------------
# meta-cluster topology
# ---------------------------------------------------------------------------


def test_meta_cluster_link_selection():
    cfg = MetaClusterConfig(cluster_size=4, wan_latency=10e-3)
    assert cfg.cluster_of(3) == 0 and cfg.cluster_of(4) == 1
    assert cfg.link(0, 3) == (cfg.latency, cfg.byte_time)
    lat, bt = cfg.link(0, 4)
    assert lat == 10e-3


def test_meta_cluster_runs_correctly_just_slower():
    lan = DsmCluster(DsmConfig(num_procs=8))
    t_lan = lan.run(make_app("counter")).wall_time
    wan = DsmCluster(
        DsmConfig(num_procs=8),
        net_config=MetaClusterConfig(cluster_size=4, wan_latency=5e-3),
    )
    t_wan = wan.run(make_app("counter")).wall_time  # result validated
    assert t_wan > 3 * t_lan


def test_independent_recovery_works_on_meta_cluster():
    net = MetaClusterConfig(cluster_size=4, wan_latency=2e-3)
    c = DsmCluster(
        DsmConfig(num_procs=8),
        net_config=net,
        ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp),
    )
    T = c.run(make_app("counter")).wall_time
    c2 = DsmCluster(
        DsmConfig(num_procs=8),
        net_config=net,
        ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp),
    )
    c2.schedule_crash(5, at_time=T * 0.4)  # victim in the remote cluster
    res = c2.run(make_app("counter"))
    assert res.recoveries == 1
