"""Integration tests for the base HLRC protocol (no FT).

Each test builds a tiny inline workload exercising one coherence
scenario end-to-end through the simulator.
"""

from typing import Any, Dict, Iterator

import numpy as np
import pytest

from repro import DsmCluster, DsmConfig
from repro.apps.base import DsmApp
from repro.dsm.protocol import DsmProcess
from repro.sim.network import MetaClusterConfig
from repro.sim.trace import WAIT

from tests.conftest import make_app, make_cluster


class MiniApp(DsmApp):
    """Inline app: body defined by subclass `body(proc, state)`."""

    name = "mini"

    def __init__(self, n_elements=64):
        self.n_elements = n_elements

    def configure(self, cluster):
        self.r = cluster.allocate("r", self.n_elements)

    def init_state(self, pid):
        return {"out": None}

    def run(self, proc, state):
        yield from self.body(proc, state)

    def body(self, proc, state):
        raise NotImplementedError
        yield


def run_mini(app, n=4):
    cluster = make_cluster(num_procs=n)
    cluster.run(app)
    return cluster


def test_write_visible_after_barrier():
    class App(MiniApp):
        def body(self, proc, state):
            if proc.pid == 0:
                v = yield from proc.write_range(self.r, 0, 4)
                v[:] = [1, 2, 3, 4]
            yield from proc.barrier()
            v = yield from proc.read_range(self.r, 0, 4)
            state["out"] = list(v)

    cluster = run_mini(App())
    for h in cluster.hosts:
        assert h.state["out"] == [1, 2, 3, 4]


def test_lock_protected_increment_is_atomic():
    class App(MiniApp):
        def body(self, proc, state):
            for _ in range(5):
                yield from proc.acquire(0)
                v = yield from proc.write_range(self.r, 0, 1)
                v[0] += 1
                yield from proc.release(0)
            yield from proc.barrier()

    app = App()
    cluster = run_mini(app, n=4)
    assert cluster.shared_snapshot(app.r)[0] == 20


def test_multi_writer_same_page_disjoint_bytes():
    class App(MiniApp):
        def body(self, proc, state):
            # all four processes write disjoint elements of page 0
            lo = proc.pid * 4
            v = yield from proc.write_range(self.r, lo, lo + 4)
            v[:] = proc.pid + 1
            yield from proc.barrier()
            v = yield from proc.read_range(self.r, 0, 16)
            state["out"] = list(v)

    cluster = run_mini(App())
    want = [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4
    for h in cluster.hosts:
        assert h.state["out"] == want


def test_lock_ping_pong_carries_latest_value():
    class App(MiniApp):
        def body(self, proc, state):
            seen = []
            for _ in range(4):
                yield from proc.acquire(1)
                v = yield from proc.write_range(self.r, 0, 1)
                seen.append(float(v[0]))
                v[0] += 1
                yield from proc.release(1)
            state["out"] = seen
            yield from proc.barrier()

    cluster = run_mini(App(), n=2)
    all_seen = sorted(
        x for h in cluster.hosts for x in h.state["out"]
    )
    # each acquire observed a strictly increasing counter: 0..7 exactly once
    assert all_seen == list(range(8))


def test_home_waits_for_inflight_diff():
    """A home whose own copy lags a write notice must block until the
    diff arrives, never read stale data. At equal link latency a diff
    reaches its home first; across a slow WAN the notice can win."""
    cluster = DsmCluster(
        DsmConfig(num_procs=8),
        net_config=MetaClusterConfig(
            cluster_size=4, wan_latency=1e-3, wan_bandwidth=1e6
        ),
    )
    waits = []
    cluster.engine.bus.subscribe(WAIT, lambda pid, bucket, s, op: waits.append(op))
    cluster.run(make_app("counter"))  # check_result validates
    assert waits.count("home_wait") >= 1


def test_reader_without_sync_may_be_stale_but_not_torn():
    """LRC: an unsynchronized reader sees a consistent old value."""

    class App(MiniApp):
        def body(self, proc, state):
            if proc.pid == 0:
                v = yield from proc.write_range(self.r, 0, 1)
                v[0] = 7
                yield from proc.barrier()
            else:
                v = yield from proc.read_range(self.r, 0, 1)
                state["out"] = float(v[0])
                yield from proc.barrier()

    cluster = run_mini(App(), n=2)
    assert cluster.hosts[1].state["out"] in (0.0, 7.0)


def test_self_reacquire_fast_path():
    class App(MiniApp):
        def body(self, proc, state):
            if proc.pid == 2:  # lock 2's manager: token rests here
                for _ in range(3):
                    yield from proc.acquire(2)
                    yield from proc.release(2)
                state["out"] = "done"
            yield from proc.barrier()

    cluster = run_mini(App())
    assert cluster.hosts[2].state["out"] == "done"
    # all local: no lock traffic beyond GrantInfo mirrors
    assert cluster.hosts[2].proto.stats.lock_acquires == 3


def test_release_unheld_lock_raises():
    class App(MiniApp):
        def body(self, proc, state):
            if proc.pid == 0:
                yield from proc.release(0)
            yield from proc.barrier()

    with pytest.raises(RuntimeError, match="unheld"):
        run_mini(App(), n=2)


def test_barrier_joins_vector_time():
    class App(MiniApp):
        def body(self, proc, state):
            v = yield from proc.write_range(
                self.r, proc.pid * 4, proc.pid * 4 + 1
            )
            v[0] = 1
            yield from proc.barrier()
            state["out"] = proc.vt

    cluster = run_mini(App())
    vts = [h.state["out"] for h in cluster.hosts]
    assert all(vt == vts[0] for vt in vts)
    assert all(c >= 1 for c in vts[0])


def test_fetch_counts_and_traffic():
    class App(MiniApp):
        def body(self, proc, state):
            if proc.pid == 0:
                v = yield from proc.write_range(self.r, 0, 64)
                v[:] = 5
            yield from proc.barrier()
            yield from proc.read_range(self.r, 0, 64)
            yield from proc.barrier()

    app = App()
    cluster = run_mini(app)
    # non-home readers fetched the invalidated pages
    total_fetches = sum(h.proto.stats.page_fetches for h in cluster.hosts)
    assert total_fetches > 0
    assert cluster.network.traffic.bytes_by_category["page"] > 0
    assert cluster.network.traffic.ft_bytes == 0  # no FT piggyback


def test_deterministic_runs():
    r1 = make_cluster(num_procs=4).run(make_app("counter"))
    r2 = make_cluster(num_procs=4).run(make_app("counter"))
    assert r1.wall_time == r2.wall_time
    assert r1.traffic.total_msgs == r2.traffic.total_msgs
    assert r1.traffic.total_bytes == r2.traffic.total_bytes


def test_varying_cluster_sizes():
    for n in (1, 2, 3, 8):
        cluster = make_cluster(num_procs=n)
        cluster.run(make_app("counter"))  # check_result runs inside


def test_barrier_manager_keeps_no_per_episode_state():
    """The barrier log is FT state (``VolatileLogs.bar``, fed by
    ``FtHooks.on_barrier_done`` at every participant): a run with FT off
    leaves nothing behind at the manager, however many barriers it
    passed."""
    cluster = make_cluster(num_procs=4)
    cluster.run(make_app("barnes"))
    mgr = cluster.hosts[0].proto.barrier_mgr
    assert mgr.next_episode > 10 and mgr.current is None
    assert not hasattr(mgr, "history")
    assert set(vars(mgr)) == {"n", "current", "next_episode", "last_global"}
