"""Unit tests for lock state tables and manager chains."""

import pytest

from repro.core.logs import GrantLog
from repro.dsm.config import DsmConfig
from repro.dsm.locks import ChainEntry, LockManagerState, LockTable, token_holders
from repro.dsm.vclock import VClock

N = 4


def test_manager_initially_holds_token():
    t = LockTable(pid=2, config=DsmConfig(num_procs=N))
    st = t.token(2)  # lock 2 managed by pid 2
    assert st.has_token
    assert st.rel_vt == VClock.zero(N)
    st2 = t.token(1)  # managed by pid 1
    assert not st2.has_token


def test_token_holders_counts_the_untouched_manager_and_creates_nothing():
    config = DsmConfig(num_procs=N)
    tables = [LockTable(pid=p, config=config) for p in range(N)]
    # lock 1 is managed by p1, which never touched it: its token rests there
    assert token_holders(tables, 1) == [1]
    assert all(t.known_locks() == [] for t in tables)
    tables[1].token(1).has_token = False  # p1 granted it away ...
    tables[3].token(1).has_token = True  # ... and p3 holds it now
    assert token_holders(tables, 1) == [3]
    tables[2].token(1).has_token = True  # a second token
    assert token_holders(tables, 1) == [2, 3]


def test_manager_access_control():
    t = LockTable(pid=0, config=DsmConfig(num_procs=N))
    assert t.manages(0) and t.manages(4)
    assert not t.manages(1)
    with pytest.raises(RuntimeError):
        t.manager(1)


def test_chain_append_and_forward_target():
    m = LockManagerState(manager=0)
    prev = m.append(2, 1)
    assert prev == 0
    prev = m.append(3, 1)
    assert prev == 2
    assert m.append(1, 1) == 3


def test_duplicate_detection():
    m = LockManagerState(manager=0)
    m.append(2, 1)
    assert m.is_duplicate(2, 1)
    assert m.is_duplicate(2, 0)
    assert not m.is_duplicate(2, 2)
    assert not m.is_duplicate(3, 1)


def test_grant_observed_advances_owner():
    m = LockManagerState(manager=0)
    m.append(2, 1)
    m.append(3, 1)
    assert m.owner() == 0
    m.grant_observed(2)
    assert m.owner() == 2
    m.grant_observed(3)
    assert m.owner() == 3
    # stale/self grants are ignored
    m.grant_observed(2)
    assert m.owner() == 3


def test_waiter_after():
    m = LockManagerState(manager=0)
    m.append(2, 1)
    m.append(3, 1)
    assert m.waiter_after(0).acquirer == 2
    assert m.waiter_after(2).acquirer == 3
    assert m.waiter_after(3) is None
    assert m.waiter_after(9) is None


def test_in_chain_at_or_after_owner():
    m = LockManagerState(manager=0)
    m.append(2, 1)
    m.append(3, 1)
    m.grant_observed(2)
    assert not m.in_chain_at_or_after_owner(0)
    assert m.in_chain_at_or_after_owner(2)
    assert m.in_chain_at_or_after_owner(3)


def test_chain_pruning_bounds_memory():
    m = LockManagerState(manager=0)
    for k in range(50):
        m.append(k % 3 + 1, k + 1)
        m.grant_observed(k % 3 + 1)
    assert len(m.chain) < 20


def test_self_grant_log_and_trim():
    """The lock layer keeps no self-grant log, it only names the node
    that holds the twin: the lock's manager, or — for the manager's own
    re-acquires — its ring successor. The mirror is a ``local`` rel_log
    entry there, trimmed by Rule 2."""
    cfg = DsmConfig(num_procs=N)
    assert cfg.self_grant_holder(lock_id=2, pid=1) == cfg.lock_manager(2) == 2
    assert cfg.self_grant_holder(lock_id=2, pid=2) == 3
    assert cfg.self_grant_holder(lock_id=3, pid=3) == 0  # the ring wraps
    assert DsmConfig(num_procs=1).self_grant_holder(0, 0) is None
    assert not hasattr(LockManagerState(manager=0), "self_grants")
    rel = GrantLog(N)  # at the holder
    for i in (1, 3, 5):
        rel.append(2, 6, VClock((0, 0, i, 0)), local=True)
    assert rel.trim(2, 2, 3) == 2
    assert [(e.acq_t[2], e.local) for e in rel.for_peer(2)] == [(5, True)]
    assert rel.trim(1, 1, 10) == 0


def test_chain_snapshot():
    t = LockTable(pid=1, config=DsmConfig(num_procs=N))
    st = t.token(1)
    st.held = True
    st.successor = (3, VClock.zero(N), 7)
    snap = t.chain_snapshot()
    assert snap[1] == (True, True, 3, 7)


def test_restore_chain_simple_walk():
    t = LockTable(pid=0, config=DsmConfig(num_procs=N))
    t.manager(0)
    t.restore_chain(0, holder=2, edges={2: (3, 1), 3: (1, 1)})
    m = t.manager(0)
    assert [e.acquirer for e in m.chain] == [2, 3, 1]
    assert m.owner() == 2


def test_restore_chain_headless_segment_reattached():
    """A crashed holder loses its successor pointer; the orphan path is
    re-attached after the holder."""
    t = LockTable(pid=0, config=DsmConfig(num_procs=N))
    t.manager(0)
    # holder 0 (us), lost edge 0->2; live edges 2->3->1
    t.restore_chain(0, holder=0, edges={2: (3, 1), 3: (1, 1)})
    m = t.manager(0)
    assert [e.acquirer for e in m.chain] == [0, 2, 3, 1]


def test_restore_chain_headless_head_gets_sentinel_seq():
    """A re-attached head's pending seq died with the old manager.

    Its handshake ``completed_seq`` (mirrored into ``last_seq``) is the
    seq of an acquire it already *finished* — seeding the chain entry
    with it makes the repair grant look like a duplicate, the waiter
    drops it, and the token is lost (deadlock). The entry must carry the
    sentinel seq 0, which grantees always accept.
    """
    t = LockTable(pid=0, config=DsmConfig(num_procs=N))
    m = t.manager(0)
    # handshake: waiter 2's last COMPLETED acquire had seq 11
    m.last_seq[2] = 11
    # holder 0 (us, recovered), lost edge 0->2; live edge 2->3 (seq 14)
    t.restore_chain(0, holder=0, edges={2: (3, 14)})
    assert [(e.acquirer, e.seq) for e in m.chain] == [(0, 0), (2, 0), (3, 14)]
    # dedupe state for future re-sent requests is untouched
    assert m.last_seq[2] == 11


def test_restore_chain_cycle_guard():
    t = LockTable(pid=0, config=DsmConfig(num_procs=N))
    t.manager(0)
    t.restore_chain(0, holder=1, edges={1: (2, 1), 2: (1, 2)})
    m = t.manager(0)
    assert [e.acquirer for e in m.chain] == [1, 2]


def test_recovering_manager_places_a_token_a_peer_reported():
    """``ReplayDriver.finalize`` alone: a managed lock the restarted
    process never touched has no local ``LockState``, so nothing visited
    it and ``token()``'s lazy "the manager starts with the token" minted
    a second one while a peer's handshake said it holds the real one."""
    from types import SimpleNamespace

    from repro.core.recovery import ReplayDriver

    class Proto(SimpleNamespace):  # the driver reaches its process weakly
        pass

    proto = Proto(
        pid=1, n=N, locks=LockTable(pid=1, config=DsmConfig(num_procs=N)), replay=None,
        vt=VClock.zero(N),
    )
    rm = SimpleNamespace(host=SimpleNamespace(queued=[]))
    driver = ReplayDriver(proto, None, rm, VClock.zero(N))
    driver.peer_token_holders[1] = 3  # p3's handshake: has_token for lock 1
    assert proto.locks.manages(1) and 1 not in proto.locks.known_locks()

    driver.finalize()

    assert proto.locks.token_snapshot()[1] == (False, False)
    assert proto.locks.manager(1).owner() == 3


def test_granted_seq_tracking():
    t = LockTable(pid=0, config=DsmConfig(num_procs=N))
    st = t.token(0)
    st.granted[3] = 2
    assert st.granted.get(3) == 2
